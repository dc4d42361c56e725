package difftest

import (
	"errors"
	"fmt"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/icache"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/vm"
)

// RefSimulator is the frozen event-at-a-time simulator: every block event,
// cached or interpreted, goes through one transfer call, and a cached block
// steps its region with advance and writes the region's and the
// collector's counters on the spot. It is the oracle for dynopt's
// region-resident walk, which keeps those counters in locals and stays in
// one loop across stays, cycles and linked transitions; every observable —
// collector, per-region statistics, report, i-cache traffic, tracer
// callbacks and selector callbacks — must match it. It implements
// vm.BlockSink and core.Env, as dynopt.Simulator does.
type RefSimulator struct {
	prog  *program.Program
	cache *codecache.Cache
	sel   core.Selector
	col   *metrics.Collector

	pos      isa.Addr
	region   *codecache.Region
	blockIdx int
	ic       *icache.Cache
	tracer   dynopt.Tracer
	errs     []error
}

// NewRefSimulator prepares a reference run of p under cfg. It honors the
// Selector, CacheLimitBytes, Preload, ICache and Tracer fields; Scratch is
// dynopt's pooling hook and is ignored.
func NewRefSimulator(p *program.Program, cfg dynopt.Config) (*RefSimulator, error) {
	if cfg.Selector == nil {
		return nil, errors.New("difftest: no selector configured")
	}
	cache := codecache.New(p)
	if cfg.CacheLimitBytes > 0 {
		cache = codecache.NewBounded(p, cfg.CacheLimitBytes)
	}
	col := metrics.NewCollector()
	col.EnsureCap(p.Len() + 1)
	if pre, ok := cfg.Selector.(core.Preallocator); ok {
		pre.Preallocate(p.Len() + 1)
	}
	if err := cache.Restore(cfg.Preload); err != nil {
		return nil, err
	}
	return &RefSimulator{
		prog:   p,
		cache:  cache,
		sel:    cfg.Selector,
		col:    col,
		pos:    p.Entry(),
		ic:     cfg.ICache,
		tracer: cfg.Tracer,
	}, nil
}

// Program implements core.Env.
func (s *RefSimulator) Program() *program.Program { return s.prog }

// Cache implements core.Env.
func (s *RefSimulator) Cache() *codecache.Cache { return s.cache }

// Insert implements core.Env.
func (s *RefSimulator) Insert(spec codecache.Spec) (*codecache.Region, error) {
	r, err := s.cache.Insert(spec)
	if err == nil && s.tracer != nil {
		s.tracer.Selected(r)
	}
	return r, err
}

// Fail implements core.Env.
func (s *RefSimulator) Fail(err error) { s.errs = append(s.errs, err) }

// BlockBatch implements vm.BlockSink, one transfer per event.
func (s *RefSimulator) BlockBatch(events []vm.BlockEvent) {
	s.col.CountEdges(s.pos, events)
	for i := range events {
		ev := &events[i]
		s.transfer(ev.Src, ev.Tgt, ev.Taken, ev.Kind)
		s.pos = ev.Tgt
	}
}

func (s *RefSimulator) transfer(src, tgt isa.Addr, taken bool, kind vm.BranchKind) {
	blockLen := int(src-s.pos) + 1
	inCache := s.region != nil
	s.col.Block(blockLen, inCache)
	if inCache {
		s.region.ExecInstrs += uint64(blockLen)
		if s.ic != nil {
			s.ic.Fetch(s.region.CacheAddr+s.region.BlockByteOffset(s.blockIdx),
				s.region.BlockBytes(s.blockIdx))
		}
		s.advanceRegion(src, tgt, taken)
		return
	}
	if taken {
		s.col.InterpBranches++
	}
	ev := core.Event{
		Src:     src,
		Tgt:     tgt,
		Kind:    kind,
		Taken:   taken,
		ToCache: s.cache.HasEntry(tgt),
	}
	s.sel.Transfer(s, ev)
	if taken {
		if r, ok := s.cache.Lookup(tgt); ok {
			s.enter(r)
		}
	}
}

func (s *RefSimulator) advanceRegion(src, tgt isa.Addr, taken bool) {
	nextIdx, stay, cycled := advance(s.region, s.blockIdx, tgt, taken)
	if stay {
		if cycled {
			s.region.CycleTraversals++
			s.region.Traversals++
		}
		s.blockIdx = nextIdx
		return
	}
	s.region.Traversals++
	if r2, ok := s.cache.Lookup(tgt); ok {
		s.col.Transition(s.region.CacheAddr, r2.CacheAddr)
		if s.tracer != nil {
			s.tracer.Transition(s.region, r2)
		}
		s.region = r2
		s.blockIdx = 0
		r2.Entries++
		return
	}
	if s.tracer != nil {
		s.tracer.Exit(s.region, tgt)
	}
	s.region = nil
	s.col.CacheExits++
	s.sel.CacheExit(s, src, tgt)
}

// advance is the frozen definition of one region step: execution leaves
// block cur of r for original address next. It returns the next block
// index when control stays inside r, with cycled set when the transfer is a
// taken branch back to the entry. A trace stays on its next chain block, or
// on a taken branch to its head — the trace-ending cycle branch or a side
// exit linked back to the head. A multipath region stays on any member
// block: exits that target a member were replaced by direct edges when the
// region was formed (paper Figure 13, line 16).
func advance(r *codecache.Region, cur int, next isa.Addr, taken bool) (nextIdx int, stay, cycled bool) {
	if r.Kind == codecache.KindTrace {
		if cur+1 < len(r.Blocks) && r.Blocks[cur+1].Start == next {
			return cur + 1, true, false
		}
		if taken && next == r.Entry {
			return 0, true, true
		}
		return 0, false, false
	}
	idx := r.BlockIndex(next)
	if idx < 0 {
		return 0, false, false
	}
	return idx, true, taken && next == r.Entry
}

func (s *RefSimulator) enter(r *codecache.Region) {
	s.region = r
	s.blockIdx = 0
	r.Entries++
	s.col.CacheEnters++
	if s.tracer != nil {
		s.tracer.Enter(r)
	}
}

// finish accounts the final block, which ends with the halt instruction,
// and analyzes the run as dynopt's endRun does.
func (s *RefSimulator) finish(st vm.Stats) (dynopt.Result, error) {
	n := s.prog.BlockLen(s.pos)
	s.col.Block(n, s.region != nil)
	if s.region != nil {
		s.region.ExecInstrs += uint64(n)
	}
	if len(s.errs) > 0 {
		return dynopt.Result{}, errors.Join(s.errs...)
	}
	if st.Instrs != 0 && s.col.TotalInstrs != st.Instrs {
		return dynopt.Result{}, fmt.Errorf("difftest: attribution mismatch: simulator saw %d instructions, the run reported %d",
			s.col.TotalInstrs, st.Instrs)
	}
	st.Instrs = s.col.TotalInstrs
	report := new(metrics.Analyzer).Analyze(s.cache, s.col, s.sel.Stats())
	report.Selector = s.sel.Name()
	return dynopt.Result{Report: report, VMStats: st, Cache: s.cache, Collector: s.col}, nil
}

// RefRun interprets p live under cfg through the reference simulator.
func RefRun(p *program.Program, cfg dynopt.Config) (dynopt.Result, error) {
	sim, err := NewRefSimulator(p, cfg)
	if err != nil {
		return dynopt.Result{}, err
	}
	st, err := vm.New(p, cfg.VM).Run(sim)
	if err != nil {
		return dynopt.Result{}, fmt.Errorf("difftest: interpreting program: %w", err)
	}
	return sim.finish(st)
}

// RefRunEvents replays a recorded block-event stream of p through the
// reference simulator; finalPC and instrs are the recorded run's totals.
func RefRunEvents(p *program.Program, cfg dynopt.Config, events []vm.BlockEvent, finalPC isa.Addr, instrs uint64) (dynopt.Result, error) {
	sim, err := NewRefSimulator(p, cfg)
	if err != nil {
		return dynopt.Result{}, err
	}
	sim.BlockBatch(events)
	return sim.finish(vm.Stats{Instrs: instrs, FinalPC: finalPC})
}

// Selectors returns a fresh-instance constructor for each selector the
// region walk is diffed under: NET, LEI, both trace-combination selectors
// and the adaptive meta-selector.
func Selectors(params core.Params) []func() core.Selector {
	return []func() core.Selector{
		func() core.Selector { return core.NewNET(params) },
		func() core.Selector { return core.NewLEI(params) },
		func() core.Selector { return core.NewCombiner(core.BaseNET, params) },
		func() core.Selector { return core.NewCombiner(core.BaseLEI, params) },
		func() core.Selector { return core.NewAdaptive(params) },
	}
}

// CompareResults checks that two runs of one program produced identical
// results: the report field for field, every exported collector counter,
// the VM summary, and every region's shape and execution statistics.
func CompareResults(a, b dynopt.Result) error {
	if a.Report != b.Report {
		return fmt.Errorf("difftest: report divergence:\nwalk: %+v\nref:  %+v", a.Report, b.Report)
	}
	if a.VMStats != b.VMStats {
		return fmt.Errorf("difftest: vm stats divergence: walk=%+v ref=%+v", a.VMStats, b.VMStats)
	}
	if a.Collector.Counters != b.Collector.Counters {
		return fmt.Errorf("difftest: collector divergence:\nwalk: %+v\nref:  %+v", a.Collector.Counters, b.Collector.Counters)
	}
	return CompareCaches(a.Cache, b.Cache)
}

// TracerEvent is one simulator lifecycle callback as TraceLog records it.
type TracerEvent struct {
	// Kind is "enter", "transition", "exit" or "selected".
	Kind string
	// Seq is the region's SelectedSeq (a transition's source region).
	Seq uint64
	// To is a transition's target region SelectedSeq.
	To uint64
	// Tgt is an exit's interpreter target.
	Tgt isa.Addr
}

// TraceLog is a dynopt.Tracer that records the full ordered callback
// sequence, so two simulators can be required to drive a tracer alike.
type TraceLog struct {
	Events []TracerEvent
}

// Enter implements dynopt.Tracer.
func (l *TraceLog) Enter(r *codecache.Region) {
	l.Events = append(l.Events, TracerEvent{Kind: "enter", Seq: r.SelectedSeq})
}

// Transition implements dynopt.Tracer.
func (l *TraceLog) Transition(from, to *codecache.Region) {
	l.Events = append(l.Events, TracerEvent{Kind: "transition", Seq: from.SelectedSeq, To: to.SelectedSeq})
}

// Exit implements dynopt.Tracer.
func (l *TraceLog) Exit(r *codecache.Region, tgt isa.Addr) {
	l.Events = append(l.Events, TracerEvent{Kind: "exit", Seq: r.SelectedSeq, Tgt: tgt})
}

// Selected implements dynopt.Tracer.
func (l *TraceLog) Selected(r *codecache.Region) {
	l.Events = append(l.Events, TracerEvent{Kind: "selected", Seq: r.SelectedSeq})
}

// Diff returns an error naming the first position where l and ref differ.
func (l *TraceLog) Diff(ref *TraceLog) error {
	for i := range min(len(l.Events), len(ref.Events)) {
		if l.Events[i] != ref.Events[i] {
			return fmt.Errorf("difftest: tracer event %d: walk=%+v ref=%+v", i, l.Events[i], ref.Events[i])
		}
	}
	if len(l.Events) != len(ref.Events) {
		return fmt.Errorf("difftest: tracer saw %d events, reference %d", len(l.Events), len(ref.Events))
	}
	return nil
}
