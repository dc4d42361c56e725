package core

import (
	"errors"
	"fmt"

	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/program"
)

// LEI implements Last-Executed Iteration trace selection (paper §3,
// Figures 5 and 6). LEI keeps a circular history buffer of the most
// recently taken control transfers together with a hash of the targets
// currently in the buffer. When a transfer's target is already in the
// buffer, a cycle has just executed and the buffer holds its path. A
// counter is kept for the target when the cycle could begin a trace — the
// completing branch is backward, or the previous occurrence of the target
// was an exit from the code cache — and when the counter reaches T_cyc the
// cyclic path is reconstructed from the buffer and promoted.
//
// Cache-boundary transfers are recorded in the buffer (see
// profile.EntryKind): exits participate fully in cycle detection, which is
// how a trace grows from an existing trace's exit (§2.2's nested-loop
// walkthrough selects the second trace at the inner trace's exit), while
// enter transfers only support path reconstruction.
type LEI struct {
	params   Params
	buf      *profile.HistoryBuffer
	counters *profile.CounterPool
	//lint:keep self-cleaning: begin() walks its touched list before reuse
	scratch leiScratch
}

// NewLEI returns an LEI selector with the given parameters.
func NewLEI(params Params) *LEI {
	params = params.withDefaults()
	return &LEI{
		params:   params,
		buf:      profile.NewHistoryBuffer(params.HistoryCap),
		counters: profile.NewCounterPool(),
	}
}

// Name implements Selector.
func (l *LEI) Name() string { return "lei" }

// Preallocate implements Preallocator: the counter pool and the history
// buffer's target table are sized to the program's address space up front,
// so the per-taken-branch LEI path never grows a table.
func (l *LEI) Preallocate(addrSpace int) {
	l.counters.EnsureCap(addrSpace)
	l.buf.EnsureAddrCap(addrSpace)
}

// Reset implements Resettable: it re-arms the selector for a fresh run with
// new parameters, keeping the counter table, the history buffer (reallocated
// only when HistoryCap changes), and the trace-formation scratch.
func (l *LEI) Reset(params Params) {
	l.params = params.withDefaults()
	l.buf.Resize(l.params.HistoryCap)
	l.counters.Reset()
}

// HistorySpan implements HistorySpanner: the span of the run's one buffer.
func (l *LEI) HistorySpan() profile.Span { return l.buf.Span() }

// Transfer implements Selector. This is INTERPRETED-BRANCH-TAKEN of
// Figure 5; the cached-target fast path (lines 1–4) records an enter entry
// for path reconstruction and skips profiling, and the jump into a newly
// selected trace (line 15) is performed by the simulator, which re-checks
// the cache after the selector runs.
//
//lint:hotpath per-interpreted-taken-branch
func (l *LEI) Transfer(env Env, ev Event) {
	if !ev.Taken {
		return
	}
	if ev.ToCache {
		l.buf.Insert(ev.Src, ev.Tgt, profile.KindEnter)
		return
	}
	l.observe(env, ev.Src, ev.Tgt, profile.KindInterp)
}

// CacheExit implements Selector: the stub transfer out of the code cache is
// recorded and takes part in cycle detection, so an exit target can become
// a trace head (Figure 5 line 9).
//
//lint:hotpath per-cache-exit
func (l *LEI) CacheExit(env Env, src, tgt isa.Addr) {
	l.observe(env, src, tgt, profile.KindExit)
}

// observe runs the Figure 5 profiling logic for one recorded transfer.
func (l *LEI) observe(env Env, src, tgt isa.Addr, kind profile.EntryKind) {
	old, completed := leiCycle(l.buf, src, tgt, kind, l.params.AblateLEIExitGrowth)
	if !completed {
		return
	}
	if l.counters.Incr(tgt) < l.params.LEIThreshold {
		return
	}
	spec, _, formed := formLEITrace(env.Program(), env.Cache(), l.buf, tgt, old, l.params, &l.scratch)
	l.buf.TruncateAfter(old)
	l.counters.Release(tgt)
	if !formed {
		return
	}
	if _, err := env.Insert(spec); err != nil {
		env.Fail(errors.Join(errors.New("lei: inserting trace"), err))
	}
}

// leiCycle inserts a transfer into the history buffer and applies the
// cycle-detection and trace-head conditions of Figure 5 lines 5–9 and 17.
// It reports the position of the previous occurrence of tgt and whether a
// qualifying cycle completed: the target is in the buffer and either the
// completing transfer is backward or the previous occurrence was reached by
// an exit from the code cache, unless ablateExitGrowth (the
// AblateLEIExitGrowth study) discounts exits.
//
//lint:hotpath per-taken-branch under LEI and combined LEI
func leiCycle(buf *profile.HistoryBuffer, src, tgt isa.Addr, kind profile.EntryKind, ablateExitGrowth bool) (old uint64, qualified bool) {
	seq := buf.Insert(src, tgt, kind)
	old, ok := buf.Lookup(tgt)
	if !ok {
		buf.SetHash(tgt, seq)
		return 0, false
	}
	oldEntry := buf.At(old)
	buf.SetHash(tgt, seq)
	exitGrown := oldEntry.Kind == profile.KindExit && !ablateExitGrowth
	if tgt <= src || exitGrown {
		return old, true
	}
	return 0, false
}

// Stats implements Selector.
func (l *LEI) Stats() ProfileStats {
	return ProfileStats{
		CountersHighWater: l.counters.HighWater(),
		CounterAllocs:     l.counters.Allocations(),
		HistoryCap:        l.buf.Cap(),
	}
}

// FormLEITrace reconstructs the cyclic path recorded in the history buffer
// between position old (the previous occurrence of start as a transfer
// target) and the end of the buffer — FORM-TRACE of Figure 6. For each
// transfer of the cycle it appends the fall-through blocks from the
// previous target through the transfer's source, stopping early when an
// instruction begins an existing region (which is also how paths that
// entered the code cache terminate: the enter transfer's target is a cached
// entry). The trace is cyclic when it ends with the branch back to start.
func FormLEITrace(p *program.Program, cache *codecache.Cache, buf *profile.HistoryBuffer, start isa.Addr, old uint64, params Params) (codecache.Spec, bool) {
	spec, _, formed := formLEITrace(p, cache, buf, start, old, params, nil)
	return spec, formed
}

// leiScratch is the reusable working state of formLEITrace: the block and
// outcome accumulators, the dense membership table with its touched-address
// list (cleared by walking the touches, not the table), and the history
// snapshot slice. Pooled selectors keep one per instance so steady-state
// trace formation does not allocate.
type leiScratch struct {
	blocks   []codecache.BlockSpec
	outcomes []obsBranch
	inTrace  []bool
	touched  []isa.Addr
	hist     []profile.HistoryEntry
}

// begin readies the scratch for a new formation over an address space of
// size addrSpace.
func (sc *leiScratch) begin(addrSpace int) {
	sc.blocks = sc.blocks[:0]
	sc.outcomes = sc.outcomes[:0]
	sc.hist = sc.hist[:0]
	if len(sc.inTrace) < addrSpace {
		sc.inTrace = make([]bool, addrSpace)
		sc.touched = sc.touched[:0]
		return
	}
	for _, a := range sc.touched {
		sc.inTrace[a] = false
	}
	sc.touched = sc.touched[:0]
}

// formLEITrace is FormLEITrace, additionally returning the branch outcomes
// along the path, which combined LEI stores with the observed trace for its
// Figure 14 accounting. When sc is non-nil its storage is reused; the
// returned spec.Blocks and outcomes then alias the scratch and are valid
// only until the next formation (codecache.Insert and Combiner.store both
// copy, so the selector flows consume them in time).
//
//lint:hotpath shared with the exported one-shot wrappers
func formLEITrace(p *program.Program, cache *codecache.Cache, buf *profile.HistoryBuffer, start isa.Addr, old uint64, params Params, sc *leiScratch) (spec codecache.Spec, outcomes []obsBranch, formed bool) {
	params = params.withDefaults()
	if sc == nil {
		sc = &leiScratch{}
	}
	sc.begin(p.Len() + 1)
	instrs := 0
	cyclic := false

	//lint:ignore hotpathalloc non-escaping closure, stack-allocated (called directly in this frame)
	appendRun := func(from, branchSrc isa.Addr) bool {
		// Append the blocks executed linearly from 'from' through the
		// block ending at branchSrc. Returns false when the trace must
		// stop inside the run. Not-taken conditionals at interior block
		// ends contribute their outcome.
		for b := from; ; {
			if cache.HasEntry(b) {
				return false // next instruction begins an existing trace
			}
			if sc.inTrace[b] {
				return false // would duplicate a block already selected
			}
			n := p.BlockLen(b)
			if instrs+n > params.MaxTraceInstrs || len(sc.blocks) >= params.MaxTraceBlocks {
				return false
			}
			sc.blocks = append(sc.blocks, codecache.BlockSpec{Start: b, Len: n})
			sc.inTrace[b] = true
			sc.touched = append(sc.touched, b)
			instrs += n
			end := b + isa.Addr(n)
			if end-1 == branchSrc {
				return true
			}
			if end-1 > branchSrc {
				// The transfer source is not on the fall-through path from
				// 'from' (it is inside a cached region, or the history is
				// discontiguous); the blocks walked so far are valid but
				// the trace stops here.
				return false
			}
			lastIn := p.At(end - 1)
			if lastIn.IsBranch() && !lastIn.IsConditional() {
				// An interior block ending in an unconditional transfer
				// cannot be fallen through: the history recorded between
				// these transfers is not a contiguous path (this happens
				// when a buffer entry's cached-target stop condition went
				// stale, e.g. after a bounded-cache flush). Stop here
				// rather than fabricate a path execution never took.
				return false
			}
			if lastIn.IsConditional() {
				sc.outcomes = append(sc.outcomes, obsBranch{addr: end - 1, taken: false})
			}
			b = end
		}
	}

	prev := start
	sc.hist = buf.AppendAfter(old, sc.hist)
	for _, br := range sc.hist {
		if !appendRun(prev, br.Src) {
			break
		}
		in := p.At(br.Src)
		sc.outcomes = append(sc.outcomes, obsBranch{
			addr:     br.Src,
			taken:    true,
			indirect: in.IsIndirect(),
			target:   br.Tgt,
		})
		if sc.inTrace[br.Tgt] {
			cyclic = br.Tgt == start
			break
		}
		prev = br.Tgt
	}
	if len(sc.blocks) == 0 {
		return codecache.Spec{}, nil, false
	}
	if sc.blocks[0].Start != start {
		// Defensive: cannot happen, the first run starts at start.
		panic(fmt.Sprintf("core: LEI trace head %d != start %d", sc.blocks[0].Start, start))
	}
	spec = codecache.Spec{
		Entry:  start,
		Kind:   codecache.KindTrace,
		Blocks: sc.blocks,
		Cyclic: cyclic,
	}
	return spec, sc.outcomes, true
}
