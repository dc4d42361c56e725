package experiments

import (
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// RelatedWork runs the §5 comparison: NET, Mojo's dual-threshold NET, a
// BOA-style majority-direction selector, a Wiggins/Redstone-style sampling
// selector, and LEI, over the full suite. The paper's argument is that the
// alternative schemes profile more branches to pick better single paths,
// but "careful selection of traces does not address the problems of
// separation and duplication" — which shows up here as: the alternatives
// spend more profiling memory without approaching LEI's transition and
// cover-set numbers.
func RelatedWork(r *sweep.Runner, scale int) (Figure, error) {
	t := stats.NewTable("", []string{"hit%", "regions", "transitions", "cover90", "counters", "dom%"},
		"%7.2f", "%8.0f", "%12.0f", "%8.1f", "%9.0f", "%6.1f")
	benches, sels := workloads.SpecNames(), RelatedSelectors()
	reps, err := runGrid(r, sweep.Grid{
		Workloads: benches,
		Scale:     scale,
		Selectors: sels,
		Configs:   []sweep.Config{{Params: core.DefaultParams()}},
	})
	if err != nil {
		return Figure{}, err
	}
	n := float64(len(benches))
	for j, sel := range sels {
		var hit, regions, transitions, cover, counters, dom float64
		for i := range benches {
			rep := reps[i*len(sels)+j]
			hit += rep.HitRate
			regions += float64(rep.Regions)
			transitions += float64(rep.Transitions)
			cover += float64(rep.CoverSet90)
			counters += float64(rep.CountersHighWater)
			dom += rep.ExitDominatedRatio
		}
		t.Add(sel, 100*hit/n, regions/n, transitions/n, cover/n, counters/n, 100*dom/n)
	}
	return Figure{
		ID:    "related",
		Title: "related trace-selection schemes (paper §5) on the full suite",
		Table: t,
		Takeaway: "BOA and Wiggins/Redstone profile every branch (large counter " +
			"columns) to choose better single paths, yet exit domination and " +
			"separation persist; LEI attacks the structure of the problem instead",
	}, nil
}
