package experiments

import (
	"repro/internal/dynopt"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// LoopCoverageStudy relates the selectors' cyclic regions to the programs'
// static natural loops: of the loops whose back edge ran hot, how many are
// spanned by a cyclic region, per selector. NET can only span loops whose
// dominant path hits no backward call or return; LEI spans loops by
// construction; the combined variants inherit their base's behaviour.
func LoopCoverageStudy(r *sweep.Runner, scale int) (Figure, error) {
	const hotness = 100
	t := stats.NewTable("", []string{"hot-loops", "spanned", "spanned%", "header-cached%"},
		"%9.0f", "%8.0f", "%9.1f", "%14.1f")
	for _, sel := range AllSelectors() {
		var hot, spanned, cached float64
		for _, b := range workloads.SpecNames() {
			prog := workloads.MustGet(b).Build(scale)
			var cov metrics.LoopCoverage
			_, err := r.Simulate(prog, sel, dynopt.Config{}, func(res dynopt.Result) {
				cov = metrics.AnalyzeLoopCoverage(prog, res.Cache, res.Collector, hotness)
			})
			if err != nil {
				return Figure{}, err
			}
			hot += float64(cov.HotLoops)
			spanned += float64(cov.Spanned)
			cached += float64(cov.HeaderCached)
		}
		spannedPct, cachedPct := 0.0, 0.0
		if hot > 0 {
			spannedPct = 100 * spanned / hot
			cachedPct = 100 * cached / hot
		}
		t.Add(sel, hot, spanned, spannedPct, cachedPct)
	}
	return Figure{
		ID:    "loops",
		Title: "hot natural loops spanned by cyclic regions (extension)",
		Table: t,
		Takeaway: "nearly every hot loop header reaches the cache under all selectors, " +
			"but only LEI-based selection spans loops whose bodies cross calls and " +
			"returns — the paper's §3 claim restated against static loop structure",
	}, nil
}
