package sweep

import (
	"fmt"

	"repro/internal/core"
)

// Selector configuration names. The first four are the paper's evaluation
// set; Adaptive is the per-phase meta-selector (ROADMAP direction 2); the
// rest are the §5 related-work comparisons.
const (
	NET      = "net"
	LEI      = "lei"
	NETComb  = "net+comb"
	LEIComb  = "lei+comb"
	Adaptive = "adaptive"
	MojoNET  = "mojo-net"
	BOA      = "boa"
	WRS      = "wrs"
)

// PaperSelectors returns the four configurations the paper evaluates, in
// presentation order.
func PaperSelectors() []string { return []string{NET, LEI, NETComb, LEIComb} }

// SelectorNames returns every name NewSelector accepts, in presentation
// order: the paper's four, then the rest.
func SelectorNames() []string {
	return append(PaperSelectors(), Adaptive, MojoNET, BOA, WRS)
}

// NewSelector builds a fresh selector for one run; it is the one
// name-to-selector table, which the repro facade and every command use.
// Sweep shards prefer recycling a pooled core.Resettable selector and fall
// back to this factory for the rest.
func NewSelector(name string, params core.Params) (core.Selector, error) {
	switch name {
	case NET:
		return core.NewNET(params), nil
	case LEI:
		return core.NewLEI(params), nil
	case NETComb:
		return core.NewCombiner(core.BaseNET, params), nil
	case LEIComb:
		return core.NewCombiner(core.BaseLEI, params), nil
	case Adaptive:
		return core.NewAdaptive(params), nil
	case MojoNET:
		return core.NewMojoNET(params, 30), nil
	case BOA:
		return core.NewBOA(params), nil
	case WRS:
		return core.NewWRS(params), nil
	default:
		return nil, fmt.Errorf("sweep: unknown selector %q (known: %v)", name, SelectorNames())
	}
}

// paramSet is a set of core.Params fields, one bit per field.
type paramSet uint16

// The core.Params fields, one bit each, in declaration order
// (TestShareProjectionCoversParams pins the order against the struct).
const (
	pNETThreshold paramSet = 1 << iota
	pLEIThreshold
	pHistoryCap
	pTProf
	pTMin
	pMaxTraceInstrs
	pMaxTraceBlocks
	pPhaseWindow
	pPhaseDwell
	pAblateLEIExitGrowth
	pAblateRejoinPaths
	pAblateNETBackwardStop

	allParams = pAblateNETBackwardStop<<1 - 1
)

// paramReads marks, for each selector name, the core.Params fields a run of
// that selector reads; it ignores every other field. Two cells of one
// program whose selector, read fields and cache bound agree report the
// same, so the engine answers the later one with the earlier one's report
// (see engine.process); HistoryCap need only lie in the earlier run's
// history span. TestShareProjectionCoversParams perturbs every ignored
// field, and HistoryCap within the span, and requires byte-equal reports.
var paramReads = map[string]paramSet{
	NET:      netReads,
	MojoNET:  netReads,
	LEI:      leiReads,
	NETComb:  pNETThreshold | combReads,
	LEIComb:  leiReads | combReads,
	Adaptive: allParams, // it runs all four paper selectors
	BOA:      traceLimits,
	WRS:      traceLimits,
}

const (
	traceLimits = pMaxTraceInstrs | pMaxTraceBlocks
	netReads    = pNETThreshold | traceLimits | pAblateNETBackwardStop
	leiReads    = pLEIThreshold | pHistoryCap | traceLimits | pAblateLEIExitGrowth
	// combReads is what trace combination adds to its base selector. The
	// NET-based combiner qualifies heads itself and never lets a recording
	// cross a backward branch, so it ignores AblateNETBackwardStop.
	combReads = pTProf | pTMin | traceLimits | pAblateRejoinPaths
)

// project zeroes the fields of p outside s. A field with no bit stays, so
// a field not yet classified counts as read.
func (s paramSet) project(p core.Params) core.Params {
	if s&pNETThreshold == 0 {
		p.NETThreshold = 0
	}
	if s&pLEIThreshold == 0 {
		p.LEIThreshold = 0
	}
	if s&pHistoryCap == 0 {
		p.HistoryCap = 0
	}
	if s&pTProf == 0 {
		p.TProf = 0
	}
	if s&pTMin == 0 {
		p.TMin = 0
	}
	if s&pMaxTraceInstrs == 0 {
		p.MaxTraceInstrs = 0
	}
	if s&pMaxTraceBlocks == 0 {
		p.MaxTraceBlocks = 0
	}
	if s&pPhaseWindow == 0 {
		p.PhaseWindow = 0
	}
	if s&pPhaseDwell == 0 {
		p.PhaseDwell = 0
	}
	if s&pAblateLEIExitGrowth == 0 {
		p.AblateLEIExitGrowth = false
	}
	if s&pAblateRejoinPaths == 0 {
		p.AblateRejoinPaths = false
	}
	if s&pAblateNETBackwardStop == 0 {
		p.AblateNETBackwardStop = false
	}
	return p
}
