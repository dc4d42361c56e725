package difftest

import (
	"errors"
	"fmt"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/program"
)

// RefLEI is the frozen Last-Executed Iteration selector over the map-hash
// RefHistoryBuffer and RefCounterPool. Algorithmically it is the production
// LEI verbatim (Figure 5 cycle detection, Figure 6 FORM-TRACE); only the
// profiling data structures differ. It implements core.Selector and reports
// the production Name so full Reports compare equal.
type RefLEI struct {
	params   core.Params
	buf      *RefHistoryBuffer
	counters *RefCounterPool
}

// NewRefLEI returns the reference LEI selector.
func NewRefLEI(params core.Params) *RefLEI {
	params = withDefaults(params)
	return &RefLEI{
		params:   params,
		buf:      NewRefHistoryBuffer(params.HistoryCap),
		counters: NewRefCounterPool(),
	}
}

// Name implements core.Selector, matching the production name.
func (l *RefLEI) Name() string { return "lei" }

// Transfer implements core.Selector.
func (l *RefLEI) Transfer(env core.Env, ev core.Event) {
	if !ev.Taken {
		return
	}
	if ev.ToCache {
		l.buf.Insert(ev.Src, ev.Tgt, profile.KindEnter)
		return
	}
	l.observe(env, ev.Src, ev.Tgt, profile.KindInterp)
}

// CacheExit implements core.Selector.
func (l *RefLEI) CacheExit(env core.Env, src, tgt isa.Addr) {
	l.observe(env, src, tgt, profile.KindExit)
}

func (l *RefLEI) observe(env core.Env, src, tgt isa.Addr, kind profile.EntryKind) {
	old, completed := refLEICycle(l.buf, src, tgt, kind, l.params)
	if !completed {
		return
	}
	if l.counters.Incr(tgt) < l.params.LEIThreshold {
		return
	}
	spec, formed := refFormLEITrace(env.Program(), env.Cache(), l.buf, tgt, old, l.params)
	l.buf.TruncateAfter(old)
	l.counters.Release(tgt)
	if !formed {
		return
	}
	if _, err := env.Insert(spec); err != nil {
		env.Fail(errors.Join(errors.New("reflei: inserting trace"), err))
	}
}

// Stats implements core.Selector.
func (l *RefLEI) Stats() core.ProfileStats {
	return core.ProfileStats{
		CountersHighWater: l.counters.HighWater(),
		CounterAllocs:     l.counters.Allocations(),
		HistoryCap:        l.buf.Cap(),
	}
}

// refLEICycle is the frozen copy of the production leiCycle over the
// reference buffer.
func refLEICycle(buf *RefHistoryBuffer, src, tgt isa.Addr, kind profile.EntryKind, params core.Params) (old uint64, qualified bool) {
	seq := buf.Insert(src, tgt, kind)
	old, ok := buf.Lookup(tgt)
	if !ok {
		buf.SetHash(tgt, seq)
		return 0, false
	}
	oldEntry := buf.At(old)
	buf.SetHash(tgt, seq)
	exitGrown := oldEntry.Kind == profile.KindExit && !params.AblateLEIExitGrowth
	if tgt <= src || exitGrown {
		return old, true
	}
	return 0, false
}

// refFormLEITrace is the frozen copy of the production FORM-TRACE walk over
// the reference buffer (it drops the branch-outcome side channel, which only
// combined LEI consumes).
func refFormLEITrace(p *program.Program, cache *codecache.Cache, buf *RefHistoryBuffer, start isa.Addr, old uint64, params core.Params) (codecache.Spec, bool) {
	params = withDefaults(params)
	var blocks []codecache.BlockSpec
	inTrace := make(map[isa.Addr]bool)
	instrs := 0
	cyclic := false

	appendRun := func(from, branchSrc isa.Addr) bool {
		for b := from; ; {
			if cache.HasEntry(b) {
				return false
			}
			if inTrace[b] {
				return false
			}
			n := p.BlockLen(b)
			if instrs+n > params.MaxTraceInstrs || len(blocks) >= params.MaxTraceBlocks {
				return false
			}
			blocks = append(blocks, codecache.BlockSpec{Start: b, Len: n})
			inTrace[b] = true
			instrs += n
			end := b + isa.Addr(n)
			if end-1 == branchSrc {
				return true
			}
			if end-1 > branchSrc {
				return false
			}
			lastIn := p.At(end - 1)
			if lastIn.IsBranch() && !lastIn.IsConditional() {
				return false
			}
			b = end
		}
	}

	prev := start
	for _, br := range buf.After(old) {
		if !appendRun(prev, br.Src) {
			break
		}
		if inTrace[br.Tgt] {
			cyclic = br.Tgt == start
			break
		}
		prev = br.Tgt
	}
	if len(blocks) == 0 {
		return codecache.Spec{}, false
	}
	if blocks[0].Start != start {
		panic(fmt.Sprintf("difftest: LEI trace head %d != start %d", blocks[0].Start, start))
	}
	return codecache.Spec{
		Entry:  start,
		Kind:   codecache.KindTrace,
		Blocks: blocks,
		Cyclic: cyclic,
	}, true
}
