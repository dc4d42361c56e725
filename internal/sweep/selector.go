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
