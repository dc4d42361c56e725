package core

import (
	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/program"
)

// Outcome is a recorded branch outcome with exported fields, for the
// external tests.
type Outcome struct {
	Addr     isa.Addr
	Taken    bool
	Indirect bool
	Target   isa.Addr
}

func exportOutcomes(obs []obsBranch) []Outcome {
	out := make([]Outcome, len(obs))
	for i, o := range obs {
		out[i] = Outcome{Addr: o.addr, Taken: o.taken, Indirect: o.indirect, Target: o.target}
	}
	return out
}

// RecordTail feeds evs to a NET tail recorder started at head and returns
// the path and branch outcomes it holds once complete; done is false when
// evs run out first.
func RecordTail(p *program.Program, head isa.Addr, maxInstrs, maxBlocks int, evs []Event) (blocks []codecache.BlockSpec, outcomes []Outcome, done bool) {
	r := newTailRecorder(p, head, maxInstrs, maxBlocks)
	for _, ev := range evs {
		if r.feed(ev) {
			return r.blocks, exportOutcomes(r.branches), true
		}
	}
	return nil, nil, false
}

// FormObservedLEI forms the LEI trace for start from the history after old
// under default parameters, as combined LEI does, and returns its path and
// branch outcomes.
func FormObservedLEI(p *program.Program, cache *codecache.Cache, buf *profile.HistoryBuffer, start isa.Addr, old uint64) (blocks []codecache.BlockSpec, outcomes []Outcome, formed bool) {
	spec, obs, formed := formLEITrace(p, cache, buf, start, old, DefaultParams(), nil)
	return spec.Blocks, exportOutcomes(obs), formed
}

// StoreObserved stores a recorded path under head and returns what the
// combiner keeps of it: the blocks and closing transfer finalize hands to
// RegionCFG.AddTrace, and the Figure 14 byte count it charges.
func (c *Combiner) StoreObserved(head isa.Addr, blocks []codecache.BlockSpec, outcomes []Outcome) (stored []codecache.BlockSpec, closing isa.Addr, hasClosing bool, bytes int) {
	obs := make([]obsBranch, len(outcomes))
	for i, o := range outcomes {
		obs[i] = obsBranch{addr: o.Addr, taken: o.Taken, indirect: o.Indirect, target: o.Target}
	}
	before := c.curBytes
	c.store(head, blocks, obs)
	spans := c.observed[head]
	s := spans[len(spans)-1]
	return c.arena[s.off : s.off+s.n], s.closing, s.hasClosing, c.curBytes - before
}
