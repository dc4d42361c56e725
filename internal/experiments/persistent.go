package experiments

import (
	"repro/internal/codecache"
	"repro/internal/dynopt"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// PersistentCache measures the warm-start extension: a first (cold) run
// selects regions, its cache snapshot preloads a second (warm) run of the
// same program, and the warm run skips the whole profile-and-select phase.
// Reported per selector: cold vs warm hit rate and the number of
// interpreted taken branches (the system-overhead proxy: every one of them
// runs the Figure 5 / NET profiling path).
func PersistentCache(r *sweep.Runner, scale int) (Figure, error) {
	t := stats.NewTable("", []string{"cold-hit%", "warm-hit%", "cold-interp", "warm-interp", "warm-regions"},
		"%9.2f", "%9.2f", "%11.0f", "%11.0f", "%12.0f")
	n := float64(len(workloads.SpecNames()))
	for _, sel := range AllSelectors() {
		var coldHit, warmHit, coldInterp, warmInterp, warmRegions float64
		for _, b := range workloads.SpecNames() {
			prog := workloads.MustGet(b).Build(scale)
			var snap []codecache.RegionSnapshot
			cold, err := r.Simulate(prog, sel, dynopt.Config{}, func(res dynopt.Result) {
				snap = res.Cache.Snapshot()
			})
			if err != nil {
				return Figure{}, err
			}
			warm, err := r.Simulate(prog, sel, dynopt.Config{Preload: snap}, nil)
			if err != nil {
				return Figure{}, err
			}
			coldHit += cold.HitRate
			warmHit += warm.HitRate
			coldInterp += float64(cold.InterpBranches)
			warmInterp += float64(warm.InterpBranches)
			warmRegions += float64(warm.Regions - cold.Regions)
		}
		t.Add(sel, 100*coldHit/n, 100*warmHit/n, coldInterp/n, warmInterp/n, warmRegions/n)
	}
	return Figure{
		ID:    "persistent",
		Title: "persistent code cache: cold vs snapshot-warmed runs (extension)",
		Table: t,
		Takeaway: "warm runs skip the interpretation needed to reach selection " +
			"thresholds (interpreted branches collapse) and select almost nothing " +
			"new; hit rates rise toward the regions' steady-state coverage",
	}, nil
}
