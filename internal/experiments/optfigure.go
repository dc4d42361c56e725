package experiments

import (
	"repro/internal/dynopt"
	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// OptimizerStudy quantifies the paper's §4.4 argument: code layout is the
// dominant optimization and regions containing multiple paths (and cycles
// with somewhere to hoist to) expose loop optimizations a lone trace
// cannot express. For each configuration it aggregates, over all regions
// selected across the suite, the layout gains (fall-through edges realized
// and unconditional jumps removed by the emitter) and loop-invariant code
// motion: candidates found in region cycles versus candidates actually
// hoistable (zero for cyclic traces, which have no preheader).
func OptimizerStudy(r *sweep.Runner, scale int) (Figure, error) {
	t := stats.NewTable("", []string{"regions", "fallthrough%", "jumps-removed", "invariant", "hoistable"},
		"%8.0f", "%12.1f", "%13.0f", "%9.0f", "%9.0f")
	for _, sel := range AllSelectors() {
		var regions, fall, slots, removed, inv, hoist float64
		for _, b := range workloads.SpecNames() {
			prog := workloads.MustGet(b).Build(scale)
			var sum optimizer.Summary
			_, err := r.Simulate(prog, sel, dynopt.Config{}, func(res dynopt.Result) {
				sum = optimizer.Summarize(prog, res.Cache)
			})
			if err != nil {
				return Figure{}, err
			}
			regions += float64(sum.Regions)
			fall += float64(sum.FallThroughs)
			slots += float64(sum.PossibleFallEdges)
			removed += float64(sum.JumpsRemoved)
			inv += float64(sum.InvariantCandidates)
			hoist += float64(sum.Hoistable)
		}
		pct := 0.0
		if slots > 0 {
			pct = 100 * fall / slots
		}
		t.Add(sel, regions, pct, removed, inv, hoist)
	}
	return Figure{
		ID:    "optimizer",
		Title: "region-optimizer opportunities across the suite (paper §4.4)",
		Table: t,
		Takeaway: "layout realizes most block joints as fall-throughs everywhere; only " +
			"multi-path regions (the combined configurations) can hoist the loop " +
			"invariants their cycles contain — a trace has nowhere to move them",
	}, nil
}
