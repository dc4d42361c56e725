package core

import (
	"errors"

	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/profile"
)

// BaseAlgorithm selects which trace-selection algorithm trace combination
// layers on (paper §4: combination "does not depend on how traces are
// selected").
type BaseAlgorithm uint8

const (
	// BaseNET builds combined regions from next-executing-tail traces.
	BaseNET BaseAlgorithm = iota
	// BaseLEI builds combined regions from last-executed-iteration traces.
	BaseLEI
)

// Combiner implements trace combination (paper §4.2, Figure 13). It lowers
// the base algorithm's selection threshold to T_start, records the traces
// observed for the next T_prof qualifying executions of the target, and
// then combines them: blocks appearing in at least T_min observed traces are
// kept, rejoining paths are added (Figure 15), exits targeting member blocks
// become internal edges, and the multi-path region is promoted to the code
// cache.
//
// Thresholds follow the paper's comparability rule: regions are selected
// after the same number of interpreted executions as under the base
// algorithm, so T_start = baseThreshold − T_prof (35 for NET, 20 for LEI).
type Combiner struct {
	params Params
	// base picks the recording machinery; it is construction-time identity,
	// not run state.
	//lint:keep selector identity, set once by NewCombiner
	base     BaseAlgorithm
	tStart   int
	counters *profile.CounterPool

	// Observed-trace storage, per profiled target: the recorded block lists
	// live back to back in a grow-only arena and each head keeps a list of
	// spans into it, recycled through spanFree when finalize releases the
	// head. Observed memory stays a measured quantity (Figure 18): the
	// accounting below counts the bytes of each trace's Figure 14 encoding.
	//lint:ignore densemap observed-trace storage is keyed by profiled heads only
	observed map[isa.Addr][]traceSpan
	arena    []codecache.BlockSpec
	spanFree [][]traceSpan // recycled per-head span lists, all length 0

	// cfg is the combination scratch: one pooled RegionCFG re-armed per
	// finalize.
	//lint:keep self-cleaning: finalize re-arms it via Reset(head) before use
	cfg        RegionCFG
	curBytes   int
	highBytes  int
	nObserved  uint64
	iterations [3]uint64 // MarkRejoiningPaths iteration histogram: 0, 1, 2+

	// NET base: in-flight tail recordings and targets awaiting their final
	// recording before combination.
	//lint:ignore densemap in-flight recordings are keyed by profiled heads only
	recording map[isa.Addr]*tailRecorder
	order     []isa.Addr
	//lint:ignore densemap combining set is keyed by profiled heads only
	combining map[isa.Addr]bool
	pool      recorderPool

	// LEI base.
	buf *profile.HistoryBuffer
	//lint:keep self-cleaning: begin() walks its touched list before reuse
	scratch leiScratch
}

// NewCombiner returns a trace-combination selector over the base algorithm.
func NewCombiner(base BaseAlgorithm, params Params) *Combiner {
	params = params.withDefaults()
	c := &Combiner{
		params:   params,
		base:     base,
		counters: profile.NewCounterPool(),
		//lint:ignore densemap observed-trace storage is keyed by profiled heads only
		observed: make(map[isa.Addr][]traceSpan),
		//lint:ignore densemap in-flight recordings are keyed by profiled heads only
		recording: make(map[isa.Addr]*tailRecorder),
		//lint:ignore densemap combining set is keyed by profiled heads only
		combining: make(map[isa.Addr]bool),
	}
	switch base {
	case BaseNET:
		c.tStart = params.NETThreshold - params.TProf
	case BaseLEI:
		c.tStart = params.LEIThreshold - params.TProf
		c.buf = profile.NewHistoryBuffer(params.HistoryCap)
	}
	if c.tStart < 1 {
		c.tStart = 1
	}
	return c
}

// Name implements Selector.
func (c *Combiner) Name() string {
	if c.base == BaseNET {
		return "net+comb"
	}
	return "lei+comb"
}

// TStart returns the profiling-start threshold in use.
func (c *Combiner) TStart() int { return c.tStart }

// Preallocate implements Preallocator for the dense tables shared with the
// base algorithms. The observed-trace and recording maps are keyed by the
// handful of heads being profiled at once and stay as maps.
func (c *Combiner) Preallocate(addrSpace int) {
	c.counters.EnsureCap(addrSpace)
	if c.buf != nil {
		c.buf.EnsureAddrCap(addrSpace)
	}
}

// Transfer implements Selector.
//
//lint:hotpath per-interpreted-taken-branch
func (c *Combiner) Transfer(env Env, ev Event) {
	if c.base == BaseNET {
		c.feedRecorders(env, ev)
		if !ev.Taken || ev.ToCache {
			return
		}
		if ev.Backward() {
			c.qualifyNET(env, ev)
		}
		return
	}
	c.transferLEI(env, ev)
}

// CacheExit implements Selector.
//
//lint:hotpath per-cache-exit
func (c *Combiner) CacheExit(env Env, src, tgt isa.Addr) {
	if c.base == BaseNET {
		c.qualifyNET(env, Event{Tgt: tgt, Taken: true})
		return
	}
	c.observeLEI(env, src, tgt, profile.KindExit)
}

// qualifyNET counts a qualifying execution of a potential trace entrance
// under the NET rules and drives the Figure 13 state machine.
func (c *Combiner) qualifyNET(env Env, ev Event) {
	tgt := ev.Tgt
	if c.combining[tgt] {
		return
	}
	if env.Cache().HasEntry(tgt) {
		// A region with this entry was inserted during this very event
		// (e.g. by a recording that just completed); control enters the
		// cache instead of being profiled.
		return
	}
	n := c.counters.Incr(tgt)
	if n > c.tStart {
		if _, active := c.recording[tgt]; !active {
			c.recording[tgt] = c.pool.get(env.Program(), tgt, c.params.MaxTraceInstrs, c.params.MaxTraceBlocks)
			c.order = append(c.order, tgt)
		}
	}
	if n >= c.tStart+c.params.TProf {
		c.counters.Release(tgt)
		c.combining[tgt] = true
		if _, active := c.recording[tgt]; !active {
			c.finalize(env, tgt)
		}
	}
}

// feedRecorders advances active observed-trace recordings; completed ones
// are stored, and a target whose final recording just completed is
// combined.
func (c *Combiner) feedRecorders(env Env, ev Event) {
	if len(c.recording) == 0 {
		return
	}
	kept := c.order[:0]
	for _, head := range c.order {
		r := c.recording[head]
		if !r.feed(ev) {
			kept = append(kept, head)
			continue
		}
		delete(c.recording, head)
		c.store(head, r.blocks, r.branches)
		c.pool.put(r) // store copied the blocks into the arena; the recorder is free
		if c.combining[head] {
			c.finalize(env, head)
		}
	}
	c.order = kept
}

// transferLEI is the LEI-based variant: cycles are detected exactly as in
// plain LEI, but once the counter passes T_start each completed cycle's
// path is stored as an observed trace, and at T_start+T_prof the stored
// traces are combined.
func (c *Combiner) transferLEI(env Env, ev Event) {
	if !ev.Taken {
		return
	}
	if ev.ToCache {
		c.buf.Insert(ev.Src, ev.Tgt, profile.KindEnter)
		return
	}
	c.observeLEI(env, ev.Src, ev.Tgt, profile.KindInterp)
}

// observeLEI runs the LEI cycle logic for one recorded transfer and drives
// the Figure 13 state machine on qualifying cycles.
func (c *Combiner) observeLEI(env Env, src, tgt isa.Addr, kind profile.EntryKind) {
	old, completed := leiCycle(c.buf, src, tgt, kind, c.params.AblateLEIExitGrowth)
	if !completed {
		return
	}
	n := c.counters.Incr(tgt)
	if n <= c.tStart {
		return
	}
	if spec, outcomes, formed := formLEITrace(env.Program(), env.Cache(), c.buf, tgt, old, c.params, &c.scratch); formed {
		c.store(tgt, spec.Blocks, outcomes)
	}
	if n >= c.tStart+c.params.TProf {
		c.counters.Release(tgt)
		c.buf.TruncateAfter(old)
		c.finalize(env, tgt)
	}
}

// store copies one recorded path — its blocks, non-empty, and the branch
// outcomes along it — into the arena, records its span under the target,
// and maintains the Figure 18 memory accounting.
func (c *Combiner) store(tgt isa.Addr, blocks []codecache.BlockSpec, outcomes []obsBranch) {
	s := newTraceSpan(len(c.arena), blocks, outcomes)
	c.arena = append(c.arena, blocks...)
	if len(c.observed[tgt]) == 0 {
		if n := len(c.spanFree); n > 0 {
			c.observed[tgt] = c.spanFree[n-1]
			c.spanFree = c.spanFree[:n-1]
		}
	}
	c.observed[tgt] = append(c.observed[tgt], s)
	c.curBytes += s.bytes
	if c.curBytes > c.highBytes {
		c.highBytes = c.curBytes
	}
	c.nObserved++
}

// finalize combines the observed traces for head and promotes the region.
func (c *Combiner) finalize(env Env, head isa.Addr) {
	delete(c.combining, head)
	traces := c.observed[head]
	delete(c.observed, head)
	for _, s := range traces {
		c.curBytes -= s.bytes
	}
	if cap(traces) > 0 {
		// Recycle the span list for the next profiled head. The spans stay
		// readable through the loop below: recycling only truncates the
		// list, and reuse cannot happen before the next store.
		c.spanFree = append(c.spanFree, traces[:0])
	}
	if len(traces) == 0 {
		return
	}
	g := &c.cfg
	g.Reset(head)
	for _, s := range traces {
		if err := g.AddTrace(c.arena[s.off:s.off+s.n], s.closing, s.hasClosing); err != nil {
			env.Fail(err)
			return
		}
	}
	if g.NumBlocks() == 0 {
		return
	}
	g.MarkFrequent(c.params.TMin)
	if !c.params.AblateRejoinPaths {
		iters := g.MarkRejoiningPaths()
		if iters > 2 {
			iters = 2
		}
		c.iterations[iters]++
	}
	spec, ok := g.BuildSpec(env.Program())
	if !ok {
		return
	}
	if env.Cache().HasEntry(spec.Entry) {
		return
	}
	if _, err := env.Insert(spec); err != nil {
		env.Fail(errors.Join(errors.New("combiner: inserting region"), err))
	}
}

// Reset implements Resettable: it re-arms the selector for a fresh run with
// new parameters, recycling in-flight recorders and span lists and keeping
// the counter table, the history buffer (reallocated only when HistoryCap
// changes), the trace-formation and combination scratch, the observed-trace
// arena capacity, and the map buckets.
func (c *Combiner) Reset(params Params) {
	params = params.withDefaults()
	c.params = params
	switch c.base {
	case BaseNET:
		c.tStart = params.NETThreshold - params.TProf
	case BaseLEI:
		c.tStart = params.LEIThreshold - params.TProf
		c.buf.Resize(params.HistoryCap)
	}
	if c.tStart < 1 {
		c.tStart = 1
	}
	c.counters.Reset()
	for _, l := range c.observed {
		if cap(l) > 0 {
			c.spanFree = append(c.spanFree, l[:0])
		}
	}
	clear(c.observed)
	c.arena = c.arena[:0]
	c.cfg.Reset(0)
	for _, r := range c.recording {
		c.pool.put(r)
	}
	clear(c.recording)
	clear(c.combining)
	c.order = c.order[:0]
	c.curBytes, c.highBytes = 0, 0
	c.nObserved = 0
	c.iterations = [3]uint64{}
}

// HistorySpan implements HistorySpanner: the span of the LEI base's buffer.
// The NET base keeps no history, so any capacity runs it alike.
func (c *Combiner) HistorySpan() profile.Span {
	if c.buf == nil {
		return profile.FullSpan
	}
	return c.buf.Span()
}

// Stats implements Selector.
func (c *Combiner) Stats() ProfileStats {
	s := ProfileStats{
		CountersHighWater:      c.counters.HighWater(),
		CounterAllocs:          c.counters.Allocations(),
		ObservedBytesHighWater: c.highBytes,
		ObservedTraces:         c.nObserved,
	}
	if c.buf != nil {
		s.HistoryCap = c.buf.Cap()
	}
	return s
}

// RejoinIterations returns how many region combinations needed zero, one,
// or two-plus marking iterations in MarkRejoiningPaths, reproducing the
// paper's §4.2.3 observation.
func (c *Combiner) RejoinIterations() [3]uint64 { return c.iterations }
