package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// DynamicStudy is the evaluation the paper never had: a fifth, dynamic
// column. It runs every SPEC-named workload plus the phased showcase under
// the four static configurations and the adaptive per-phase meta-selector,
// reports hit rates side by side, and marks each row's winner in its label.
// On homogeneous workloads the detector settles into the right static
// policy after the first window, so "adaptive" tracks the best static
// closely; the phased workload is where switching pays.
func DynamicStudy(r *sweep.Runner, scale int) (Figure, error) {
	sels := AllSelectors()
	cols := make([]string, 0, len(sels))
	formats := make([]string, 0, len(sels))
	for range sels {
		formats = append(formats, "%9.2f")
	}
	cols = append(cols, sels...)
	t := stats.NewTable("hit rate (%)", cols, formats...)
	benches := append(workloads.SpecNames(), "phased")
	reps, err := runGrid(r, sweep.Grid{
		Workloads: benches,
		Scale:     scale,
		Selectors: sels,
		Configs:   []sweep.Config{{Params: core.DefaultParams()}},
	})
	if err != nil {
		return Figure{}, err
	}
	for i, b := range benches {
		hits := make([]float64, 0, len(sels))
		winner, best := "", -1.0
		for j, sel := range sels {
			rep := reps[i*len(sels)+j]
			hits = append(hits, 100*rep.HitRate)
			if rep.HitRate > best {
				winner, best = sel, rep.HitRate
			}
		}
		t.Add(fmt.Sprintf("%s (best: %s)", b, winner), hits...)
	}
	return Figure{
		ID:    "dynamic",
		Title: "adaptive per-phase selection vs the paper's four static configurations",
		Table: t,
		Takeaway: "on phase-homogeneous workloads the detector locks onto one policy and " +
			"tracks the best static; on the phased workload under a bounded cache the " +
			"tuned adaptive points are undominated on the hit-rate/expansion front " +
			"(see TestAdaptiveParetoFront)",
	}, nil
}

// ParetoPoint is one (selector, hit-rate, code-expansion) measurement from
// the bounded-cache phased showcase.
type ParetoPoint struct {
	Name      string
	HitRate   float64
	Expansion int
}

// Dominates reports strict Pareto domination on the hit-rate (higher is
// better) / code-expansion (lower is better) plane.
func (p ParetoPoint) Dominates(q ParetoPoint) bool {
	return p.HitRate >= q.HitRate && p.Expansion <= q.Expansion &&
		(p.HitRate > q.HitRate || p.Expansion < q.Expansion)
}

// AdaptiveShowcase runs the bounded-cache phased experiment the adaptive
// selector was built for: the registered phased workload at the given scale
// under a cache limit, with the four statics at the paper's parameters and
// the adaptive meta-selector at the given detector tuning. It returns the
// static points followed by the adaptive point.
func AdaptiveShowcase(scale, limitBytes, window, dwell int) ([]ParetoPoint, error) {
	r := sweep.NewRunner()
	var out []ParetoPoint
	run := func(sels []string, params core.Params) error {
		reps, err := runGrid(r, sweep.Grid{
			Workloads: []string{"phased"},
			Scale:     scale,
			Selectors: sels,
			Configs:   []sweep.Config{{Params: params, CacheLimitBytes: limitBytes}},
		})
		for i, rep := range reps {
			out = append(out, ParetoPoint{Name: sels[i], HitRate: rep.HitRate, Expansion: rep.CodeExpansion})
		}
		return err
	}
	if err := run([]string{NET, LEI, NETComb, LEIComb}, core.DefaultParams()); err != nil {
		return nil, err
	}
	params := core.DefaultParams()
	params.PhaseWindow = window
	params.PhaseDwell = dwell
	if err := run([]string{Adaptive}, params); err != nil {
		return nil, err
	}
	return out, nil
}
