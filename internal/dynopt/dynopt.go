// Package dynopt simulates the dynamic optimization system of the paper's
// Figure 1: a program is emulated by an interpreter while a region-selection
// algorithm profiles its taken branches; selected regions are promoted to a
// code cache, and subsequent execution of cached code runs "natively"
// (attributed to the cache) until it exits back to the interpreter.
//
// The simulator consumes the dynamic block stream produced by the vm
// package — the same signal the paper's Pin-based framework consumed — and
// drives a core.Selector. All details of region selection are abstracted
// behind that interface, exactly as in the paper's framework (§2.3,
// footnote 4).
package dynopt

import (
	"errors"
	"fmt"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/icache"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/vm"
)

// Config configures one simulation run.
type Config struct {
	// Selector is the region-selection algorithm under test.
	Selector core.Selector
	// VM bounds program interpretation.
	VM vm.Config
	// CacheLimitBytes bounds the code cache; zero (the paper's setup)
	// means unbounded.
	CacheLimitBytes int
	// Preload restores a code-cache snapshot from a previous run of the
	// same program before execution begins (the persistent-cache
	// extension): the run starts warm.
	Preload []codecache.RegionSnapshot
	// ICache, when set, simulates an instruction cache over the code-cache
	// layout for all execution inside regions (the locality extension):
	// each executed block fetches its lines at its layout address.
	ICache *icache.Cache
	// Tracer, when set, receives simulation lifecycle events (cache
	// enters, exits, transitions, selections) for debugging and timeline
	// tooling. It must not mutate simulator state.
	Tracer Tracer
	// Scratch holds the run's state — interpreter, simulator, metrics
	// collector, code cache, and report analyzer. Setting the same Scratch
	// on back-to-back runs pools that state across them; nil runs on a
	// fresh Scratch of its own.
	Scratch *Scratch
}

// Scratch holds the state of a simulation run; every run executes on one.
// Callers running many simulations back to back reuse one Scratch (one per
// harness worker); a run whose Config leaves it nil gets a fresh Scratch of
// its own. The zero value is ready to use. The Result's Cache and Collector
// and the report's intermediate tables live in the Scratch and are
// invalidated by the next run that uses it; the Result's Report is a plain
// value, detached from all scratch state, and stays valid indefinitely.
//
// Every component field must be re-armed on the reuse path — scratchclean
// machine-checks that (docs/LINTING.md).
//
//lint:pooled components re-armed in NewSimulator/Record/analyzeRun/repeatPeriod
type Scratch struct {
	machine  vm.Machine
	col      metrics.Collector
	analyzer metrics.Analyzer
	sim      Simulator
	cache    codecache.Cache
	periods  periodLog
}

// Tracer observes the simulated system's state machine.
type Tracer interface {
	// Enter fires when control moves from the interpreter into a region.
	Enter(r *codecache.Region)
	// Transition fires on a linked jump between regions.
	Transition(from, to *codecache.Region)
	// Exit fires when control returns to the interpreter at tgt.
	Exit(r *codecache.Region, tgt isa.Addr)
	// Selected fires when a region is promoted to the cache.
	Selected(r *codecache.Region)
}

// Result is the outcome of a run.
type Result struct {
	// Report carries every paper metric.
	Report metrics.Report
	// VMStats is the underlying interpretation summary.
	VMStats vm.Stats
	// Cache is the final code cache, for deeper inspection.
	Cache *codecache.Cache
	// Collector holds the raw execution facts.
	Collector *metrics.Collector
}

// Simulator drives one program run under one selector. It implements both
// vm.BlockSink (to consume the dynamic block stream) and core.Env (to
// service the selector).
type Simulator struct {
	scratch *Scratch // the Scratch this Simulator lives in

	prog  *program.Program
	cache *codecache.Cache
	sel   core.Selector
	col   *metrics.Collector

	pos      isa.Addr // leader of the block currently executing
	region   *codecache.Region
	blockIdx int
	ic       *icache.Cache
	tracer   Tracer
	errs     []error
}

// NewSimulator prepares a run of p under cfg on cfg.Scratch, or on a fresh
// Scratch when that is nil. Dense per-address state — the collector's edge
// table and any core.Preallocator tables of the selector — is sized to the
// program's address space up front (program length plus one, covering the
// VM's one-past-the-end predecode sentinel), so the simulation hot path
// never grows a table.
func NewSimulator(p *program.Program, cfg Config) *Simulator {
	sc := cfg.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	sc.col.Reset()
	sc.cache.Reset(p, cfg.CacheLimitBytes)
	addrSpace := p.Len() + 1
	sc.col.EnsureCap(addrSpace)
	if pre, ok := cfg.Selector.(core.Preallocator); ok {
		pre.Preallocate(addrSpace)
	}
	sc.sim = Simulator{
		scratch: sc,
		prog:    p,
		cache:   &sc.cache,
		sel:     cfg.Selector,
		col:     &sc.col,
		ic:      cfg.ICache,
		tracer:  cfg.Tracer,
	}
	return &sc.sim
}

// Program implements core.Env.
func (s *Simulator) Program() *program.Program { return s.prog }

// Cache implements core.Env.
func (s *Simulator) Cache() *codecache.Cache { return s.cache }

// Insert implements core.Env.
func (s *Simulator) Insert(spec codecache.Spec) (*codecache.Region, error) {
	r, err := s.cache.Insert(spec)
	if err == nil && s.tracer != nil {
		s.tracer.Selected(r)
	}
	return r, err
}

// Fail implements core.Env.
func (s *Simulator) Fail(err error) { s.errs = append(s.errs, err) }

// BlockBatch implements vm.BlockSink: each event is the completed execution
// of exactly one basic block — the block led by the current position, whose
// final instruction is the event's Src. Fall-through boundaries arrive
// pre-resolved, so the block length is a single subtraction. The batch's
// edges are counted in one fold before the walk; a run replaying against a
// borrowed edge table skips even that.
//
//lint:hotpath batched block-event consumption
func (s *Simulator) BlockBatch(events []vm.BlockEvent) {
	s.feed(events, nil)
}

// feed counts the edges of events and simulates them. reps is the events'
// repeat list (tracestream.Corpus carries one): inside each repeat, feed
// cuts the stream at period boundaries, and at a boundary where control is
// in the code cache it tries to advance the rest of the repeat in one step
// (repeatPeriod). Repeats it cannot use — an i-cache or a tracer observes
// every step, or the list does not fit the events — are walked event by
// event, as a nil list is.
//
//lint:hotpath batched block-event consumption
func (s *Simulator) feed(events []vm.BlockEvent, reps []Repeat) {
	s.col.CountEdges(s.pos, events)
	if s.ic != nil || s.tracer != nil {
		reps = nil
	}
	i := 0
	for _, rp := range reps {
		p := int(rp.Period)
		end := int(rp.Start) + p*int(rp.Count)
		if int(rp.Start) < i || p < 1 || p > MaxRepeatPeriod || end > len(events) {
			continue
		}
		// The first period is entered from outside the repeat; every later
		// boundary is entered from the previous period's last event, so
		// boundaries share one position from the second on.
		b := int(rp.Start) + p
		s.step(events[:b], i)
		for ; b+2*p <= end; b += p {
			if s.region == nil {
				s.step(events[:b+p], b)
			} else if s.repeatPeriod(events[:b+p], b, uint64((end-b)/p-1)) {
				b = end
				break
			}
		}
		i = b
	}
	s.step(events, i)
}

// step simulates events[i:]: interpreted blocks take transfer one event at
// a time; once control is inside the code cache, walk consumes events until
// the next real cache exit or the end of the slice.
//
//lint:hotpath batched block-event consumption
func (s *Simulator) step(events []vm.BlockEvent, i int) {
	for i < len(events) {
		if s.region != nil {
			i = s.walk(events, i)
			continue
		}
		ev := &events[i]
		s.transfer(ev.Src, ev.Tgt, ev.Taken, ev.Kind)
		s.pos = ev.Tgt
		i++
	}
}

// repeatPeriod walks the period events[b:] from inside the code cache with
// its growth logged. When control stayed in the cache for the whole period
// and came back to the region and block it started from, each of the
// following rest periods — the same events from the same state — walks
// exactly the same way: the selector never runs inside the cache, so no
// region is inserted and every Lookup answers as before. repeatPeriod then
// applies the logged growth rest more times and reports true; the caller
// skips those periods. Otherwise it finishes the period event by event and
// reports false.
//
// The log marks, before the walk, every region the period can touch: the
// one it starts in and each region whose entry one of its events targets,
// since a linked transition lands only on such an entry. Marking a region
// the walk then misses costs nothing, as its growth is zero; walk itself
// keeps no log.
//
//lint:hotpath periodic-delta replay
func (s *Simulator) repeatPeriod(events []vm.BlockEvent, b int, rest uint64) bool {
	r, idx := s.region, s.blockIdx
	log := &s.scratch.periods
	log.begin(s.col.Counters, r)
	for j := b; j < len(events); j++ {
		if r2, ok := s.cache.Lookup(events[j].Tgt); ok {
			log.mark(r2)
		}
	}
	i := s.walk(events, b)
	if i < len(events) {
		s.step(events, i)
		return false
	}
	if s.region != r || s.blockIdx != idx {
		return false
	}
	log.repeat(&s.col.Counters, rest)
	s.col.SkippedEvents += rest * uint64(len(events)-b)
	return true
}

// transfer handles one control transfer out of an interpreted block. src is
// always the final instruction of the block led by s.pos (the block-event
// protocol guarantees it), so the block length is a subtraction, not a
// block-table lookup.
func (s *Simulator) transfer(src, tgt isa.Addr, taken bool, kind vm.BranchKind) {
	s.col.Block(int(src-s.pos)+1, false)
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
		// Enter the cache when the target is (or has just become) a cached
		// region entry. Checking after the selector ran realizes Figure 5
		// line 15: control jumps into a trace selected at this branch.
		if r, ok := s.cache.Lookup(tgt); ok {
			s.enter(r)
		}
	}
}

// walk executes cached code: starting at events[i], with control inside
// s.region, it consumes events until control returns to the interpreter,
// and returns the index past the exit event (len(events) when the batch
// ends first). Each event completes the region block at the current index
// and steps it — to the next chain block or, on a taken branch to the
// entry, back to the head for a trace; to any member block for a multipath
// region, found by one probe of the region's block index. A
// step that leaves the region and lands on another region's entry is a
// linked transition and keeps the walk going; only a target with no cached
// entry is a real exit, which the selector hears about.
//
// The current region's instruction and cycle counts live in locals and are
// written back when control leaves the region, and at the end of the batch,
// since a live run's batches end mid-region.
//
//lint:hotpath region-resident walk through cached code
func (s *Simulator) walk(events []vm.BlockEvent, i int) int {
	r, idx, pos := s.region, s.blockIdx, s.pos
	ic := s.ic
	var instrs, cycles uint64
	for ; i < len(events); i++ {
		ev := &events[i]
		instrs += uint64(ev.Src-pos) + 1
		if ic != nil {
			ic.Fetch(r.CacheAddr+r.BlockByteOffset(idx), r.BlockBytes(idx))
		}
		tgt := ev.Tgt
		pos = tgt
		if r.Kind == codecache.KindTrace {
			if idx+1 < len(r.Blocks) && r.Blocks[idx+1].Start == tgt {
				idx++
				continue
			}
			// A taken branch to the head cycles, whether it is the
			// trace-ending branch or a side exit linked back to the head.
			if ev.Taken && tgt == r.Entry {
				idx = 0
				cycles++
				continue
			}
		} else if next := r.BlockIndex(tgt); next >= 0 {
			if ev.Taken && tgt == r.Entry {
				cycles++
			}
			idx = next
			continue
		}
		// Control leaves r: one more traversal ends here.
		s.settle(r, instrs, cycles+1, cycles)
		instrs, cycles = 0, 0
		if r2, ok := s.cache.Lookup(tgt); ok {
			s.col.Transition(r.CacheAddr, r2.CacheAddr)
			if s.tracer != nil {
				s.tracer.Transition(r, r2)
			}
			r, idx = r2, 0
			r2.Entries++
			continue
		}
		if s.tracer != nil {
			s.tracer.Exit(r, tgt)
		}
		s.region, s.pos = nil, tgt
		s.col.CacheExits++
		s.sel.CacheExit(s, ev.Src, tgt)
		return i + 1
	}
	s.settle(r, instrs, cycles, cycles)
	s.region, s.blockIdx, s.pos = r, idx, pos
	return i
}

// settle writes instrs cached instructions, traversals and cycles back to
// region r and the collector.
func (s *Simulator) settle(r *codecache.Region, instrs, traversals, cycles uint64) {
	r.ExecInstrs += instrs
	r.Traversals += traversals
	r.CycleTraversals += cycles
	s.col.TotalInstrs += instrs
	s.col.CacheInstrs += instrs
}

// enter moves execution from the interpreter into region r.
func (s *Simulator) enter(r *codecache.Region) {
	s.region = r
	s.blockIdx = 0
	r.Entries++
	s.col.CacheEnters++
	if s.tracer != nil {
		s.tracer.Enter(r)
	}
}

// finish accounts the final block, which ends with the halt instruction.
// The block stream reports every earlier boundary, so the current position
// already leads it.
//
//lint:hotpath run epilogue shares the transfer path
func (s *Simulator) finish() {
	n := s.prog.BlockLen(s.pos)
	s.col.Block(n, s.region != nil)
	if s.region != nil {
		s.region.ExecInstrs += uint64(n)
	}
}

// beginRun validates cfg and prepares the simulator every run path drives,
// restoring the preloaded code cache when one is configured.
func beginRun(p *program.Program, cfg Config) (*Simulator, error) {
	if cfg.Selector == nil {
		return nil, errors.New("dynopt: no selector configured")
	}
	sim := NewSimulator(p, cfg)
	if len(cfg.Preload) > 0 {
		if err := sim.cache.Restore(cfg.Preload); err != nil {
			return nil, fmt.Errorf("dynopt: preloading cache: %w", err)
		}
	}
	return sim, nil
}

// endRun closes a run whose events have all been delivered: it accounts
// the final block, surfaces selector failures, cross-checks the simulator's
// instruction attribution against st (st.Instrs 0 skips the check), and
// analyzes the report.
func endRun(sim *Simulator, cfg Config, st vm.Stats) (Result, error) {
	sim.finish()
	if len(sim.errs) > 0 {
		return Result{}, errors.Join(sim.errs...)
	}
	if st.Instrs != 0 && sim.col.TotalInstrs != st.Instrs {
		return Result{}, fmt.Errorf("dynopt: attribution mismatch: simulator saw %d instructions, the run reported %d",
			sim.col.TotalInstrs, st.Instrs)
	}
	st.Instrs = sim.col.TotalInstrs
	return Result{
		Report:    analyzeRun(sim, cfg),
		VMStats:   st,
		Cache:     sim.cache,
		Collector: sim.col,
	}, nil
}

// analyzeRun produces the run's report through its Scratch's analyzer.
func analyzeRun(sim *Simulator, cfg Config) metrics.Report {
	report := sim.scratch.analyzer.Analyze(sim.cache, sim.col, cfg.Selector.Stats())
	report.Selector = cfg.Selector.Name()
	return report
}

// Run interprets the program to completion under the configured selector
// and returns the full metric report.
func Run(p *program.Program, cfg Config) (Result, error) {
	sim, err := beginRun(p, cfg)
	if err != nil {
		return Result{}, err
	}
	st, err := Record(p, cfg.VM, sim.scratch, sim)
	if err != nil {
		return Result{}, err
	}
	return endRun(sim, cfg, st)
}

// Record interprets p to completion under vmCfg on sc's machine (a fresh
// Scratch's when sc is nil) and delivers its block-event stream to sink
// alone: no simulator runs. It is the recording step of a record-then-replay
// run, and Run's interpretation step, so a VM error reads the same from both.
func Record(p *program.Program, vmCfg vm.Config, sc *Scratch, sink vm.BlockSink) (vm.Stats, error) {
	if sc == nil {
		sc = new(Scratch)
	}
	sc.machine.Load(p, vmCfg)
	st, err := sc.machine.Run(sink)
	if err != nil {
		return vm.Stats{}, fmt.Errorf("dynopt: interpreting program: %w", err)
	}
	return st, nil
}

// RunEvents drives the simulator from a fully decoded block-event stream —
// the corpus replay path. finalPC and instrs are the recorded run's halt
// address and instruction count (instrs 0 skips the attribution
// cross-check). The run counts the stream's edges into its own table and
// walks every event; RunEdges replays against a table counted once
// beforehand and skips repeated periods.
//
//lint:hotpath corpus replay drives the batched event path
func RunEvents(p *program.Program, cfg Config, events []vm.BlockEvent, finalPC isa.Addr, instrs uint64) (Result, error) {
	return RunEdges(p, cfg, events, nil, nil, finalPC, instrs)
}

// RunEdges is RunEvents with the stream's edge table and repeat list
// supplied (tracestream.Corpus carries both). edges must hold the edge
// counts of exactly this stream: the run borrows it read-only instead of
// counting — edge counts do not depend on the selector, so a replay pays
// only for what the selector changes — and the result's Collector reports
// it. A nil edges counts the stream as RunEvents does. reps must list
// repeats of exactly this stream, sorted and disjoint: the run advances
// their in-cache periods in bulk (see Simulator.feed) and counts the events
// it skipped in Collector.SkippedEvents; a nil reps walks every event.
// Pooled callers (sweep shards replaying a shared corpus) stay
// allocation-free in steady state.
//
//lint:hotpath corpus replay drives the batched event path
func RunEdges(p *program.Program, cfg Config, events []vm.BlockEvent, edges *metrics.Edges, reps []Repeat, finalPC isa.Addr, instrs uint64) (Result, error) {
	sim, err := beginRun(p, cfg)
	if err != nil {
		return Result{}, err
	}
	if edges != nil {
		sim.col.Borrow(edges)
	}
	sim.feed(events, reps)
	return endRun(sim, cfg, vm.Stats{Instrs: instrs, FinalPC: finalPC})
}

// RunStream drives the simulator from an already-collected block-event
// stream instead of interpreting the program live — the decoupling the
// paper's Pin-based framework used. feed must push the stream into the
// provided sink (tracestream.Reader.Feed does) and return the run's final
// halt address and instruction count (instrs 0 skips the cross-check).
func RunStream(p *program.Program, cfg Config, feed func(vm.BlockSink) (finalPC isa.Addr, instrs uint64, err error)) (Result, error) {
	sim, err := beginRun(p, cfg)
	if err != nil {
		return Result{}, err
	}
	finalPC, instrs, err := feed(sim)
	if err != nil {
		return Result{}, fmt.Errorf("dynopt: streaming: %w", err)
	}
	return endRun(sim, cfg, vm.Stats{Instrs: instrs, FinalPC: finalPC})
}
