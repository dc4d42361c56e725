package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// This file implements the sensitivity and ablation studies that go beyond
// the paper's headline figures:
//
//   - the paper's footnote 8 (smaller T_prof/T_min "results in smaller but
//     similar improvements"),
//   - the history-buffer capacity choice of §3.2 ("small enough to require
//     little memory but large enough to capture very long cycles"),
//   - the selection thresholds,
//   - ablations of two load-bearing design decisions: LEI's ability to
//     grow traces from code-cache exits, and trace combination's inclusion
//     of rejoining paths (Figure 15).

// ExtraIDs lists the sensitivity-sweep and ablation studies, which run
// their own simulation matrices rather than consuming a shared Results.
func ExtraIDs() []string {
	return []string{"sweep-tprof", "sweep-buffer", "sweep-threshold", "ablation", "random-corpus", "bounded", "optimizer", "related", "persistent", "loops", "icache", "inputs", "dynamic"}
}

// BuildExtra regenerates one sweep or ablation study at the given scale on
// r, which records each program once and replays it for every other run —
// of this study and of every other study built on the same Runner.
func BuildExtra(r *sweep.Runner, id string, scale int) (Figure, error) {
	switch id {
	case "sweep-tprof":
		return SweepTProf(r, scale)
	case "sweep-buffer":
		return SweepHistoryCap(r, scale)
	case "sweep-threshold":
		return SweepThresholds(r, scale)
	case "ablation":
		return Ablations(r, scale)
	case "random-corpus":
		return RandomCorpus(r, 20, 1)
	case "bounded":
		return BoundedCache(r, scale)
	case "optimizer":
		return OptimizerStudy(r, scale)
	case "related":
		return RelatedWork(r, scale)
	case "persistent":
		return PersistentCache(r, scale)
	case "loops":
		return LoopCoverageStudy(r, scale)
	case "icache":
		return ICacheStudy(r, scale)
	case "inputs":
		return InputSensitivity(r, scale)
	case "dynamic":
		return DynamicStudy(r, scale)
	default:
		return Figure{}, fmt.Errorf("experiments: unknown extra figure %q", id)
	}
}

// runSuite runs every SPEC benchmark under one selector configuration and
// returns the per-benchmark reports in workloads.SpecNames order.
func runSuite(r *sweep.Runner, sel string, scale int, params core.Params) ([]metrics.Report, error) {
	return runGrid(r, sweep.Grid{
		Workloads: workloads.SpecNames(),
		Scale:     scale,
		Selectors: []string{sel},
		Configs:   []sweep.Config{{Params: params}},
	})
}

// relAvg averages the per-benchmark ratio of a metric between two suites
// from runSuite. Both suites are in the same benchmark order, and the sum
// follows it, so the same suites always give the same float64.
func relAvg(num, den []metrics.Report, f func(metrics.Report) float64) float64 {
	xs := make([]float64, len(num))
	for i := range num {
		xs[i] = stats.Ratio(f(num[i]), f(den[i]))
	}
	return stats.Mean(xs)
}

// suiteAvg averages a metric over a suite's benchmarks.
func suiteAvg(m []metrics.Report, f func(metrics.Report) float64) float64 {
	xs := make([]float64, len(m))
	for i := range m {
		xs[i] = f(m[i])
	}
	return stats.Mean(xs)
}

// SweepTProf reproduces footnote 8: combined LEI with (T_prof, T_min) of
// (15,5), (10,3), and (5,2), against the plain LEI baseline.
func SweepTProf(r *sweep.Runner, scale int) (Figure, error) {
	base, err := runSuite(r, LEI, scale, core.DefaultParams())
	if err != nil {
		return Figure{}, err
	}
	t := stats.NewTable("", []string{"transitions-rel", "cover90-rel", "stubs-rel", "obs-bytes"},
		"%15.3f", "%11.3f", "%9.3f", "%9.0f")
	for _, cfg := range []struct{ tprof, tmin int }{{15, 5}, {10, 3}, {5, 2}} {
		p := core.DefaultParams()
		p.TProf, p.TMin = cfg.tprof, cfg.tmin
		comb, err := runSuite(r, LEIComb, scale, p)
		if err != nil {
			return Figure{}, err
		}
		t.Add(fmt.Sprintf("Tprof=%d Tmin=%d", cfg.tprof, cfg.tmin),
			relAvg(comb, base, func(m metrics.Report) float64 { return float64(m.Transitions) }),
			relAvg(comb, base, func(m metrics.Report) float64 { return float64(m.CoverSet90) }),
			relAvg(comb, base, func(m metrics.Report) float64 { return float64(m.Stubs) }),
			suiteAvg(comb, func(m metrics.Report) float64 { return float64(m.ObservedBytesHighWater) }))
	}
	return Figure{
		ID:    "sweep-tprof",
		Title: "combined LEI vs plain LEI across (T_prof, T_min) (paper footnote 8)",
		Table: t,
		Takeaway: "paper: T_prof=5, T_min=2 gives smaller but similar improvements " +
			"with less observation memory",
	}, nil
}

// SweepHistoryCap varies LEI's history-buffer capacity around the paper's
// 500.
func SweepHistoryCap(r *sweep.Runner, scale int) (Figure, error) {
	t := stats.NewTable("", []string{"spanned%", "transitions", "cover90", "hit%"},
		"%9.1f", "%12.0f", "%8.1f", "%7.2f")
	for _, cap := range []int{50, 125, 250, 500, 1000} {
		p := core.DefaultParams()
		p.HistoryCap = cap
		m, err := runSuite(r, LEI, scale, p)
		if err != nil {
			return Figure{}, err
		}
		t.Add(fmt.Sprintf("cap=%d", cap),
			100*suiteAvg(m, func(m metrics.Report) float64 { return m.SpannedRatio }),
			suiteAvg(m, func(m metrics.Report) float64 { return float64(m.Transitions) }),
			suiteAvg(m, func(m metrics.Report) float64 { return float64(m.CoverSet90) }),
			100*suiteAvg(m, func(m metrics.Report) float64 { return m.HitRate }))
	}
	return Figure{
		ID:    "sweep-buffer",
		Title: "LEI across history-buffer capacities (paper §3.2 uses 500)",
		Table: t,
		Takeaway: "a buffer too small to hold long cycles loses spanning; beyond the " +
			"working set, extra capacity changes nothing",
	}, nil
}

// SweepThresholds varies the selection thresholds around the published
// values (NET 50, LEI 35).
func SweepThresholds(r *sweep.Runner, scale int) (Figure, error) {
	t := stats.NewTable("", []string{"hit%", "expansion", "cover90", "transitions"},
		"%7.2f", "%9.0f", "%8.1f", "%12.0f")
	for _, row := range []struct {
		name     string
		sel      string
		net, lei int
	}{
		{"net T=25", NET, 25, 0}, {"net T=50", NET, 50, 0}, {"net T=100", NET, 100, 0},
		{"lei T=18", LEI, 0, 18}, {"lei T=35", LEI, 0, 35}, {"lei T=70", LEI, 0, 70},
	} {
		p := core.DefaultParams()
		if row.net > 0 {
			p.NETThreshold = row.net
		}
		if row.lei > 0 {
			p.LEIThreshold = row.lei
		}
		m, err := runSuite(r, row.sel, scale, p)
		if err != nil {
			return Figure{}, err
		}
		t.Add(row.name,
			100*suiteAvg(m, func(m metrics.Report) float64 { return m.HitRate }),
			suiteAvg(m, func(m metrics.Report) float64 { return float64(m.CodeExpansion) }),
			suiteAvg(m, func(m metrics.Report) float64 { return float64(m.CoverSet90) }),
			suiteAvg(m, func(m metrics.Report) float64 { return float64(m.Transitions) }))
	}
	return Figure{
		ID:    "sweep-threshold",
		Title: "selection thresholds around the published values",
		Table: t,
		Takeaway: "lower thresholds select sooner (higher hit rate, more expansion); " +
			"the paper's §3.2 notes lowering could compensate for LEI's hit-rate dips",
	}, nil
}

// Ablations measures the two design choices DESIGN.md calls out: LEI's
// exit-grown traces and combination's rejoining paths.
func Ablations(r *sweep.Runner, scale int) (Figure, error) {
	t := stats.NewTable("", []string{"hit%", "spanned%", "transitions", "dup%", "expansion", "cover90"},
		"%7.2f", "%9.1f", "%12.0f", "%7.2f", "%10.0f", "%8.1f")
	add := func(name, sel string, p core.Params) error {
		m, err := runSuite(r, sel, scale, p)
		if err != nil {
			return err
		}
		t.Add(name,
			100*suiteAvg(m, func(m metrics.Report) float64 { return m.HitRate }),
			100*suiteAvg(m, func(m metrics.Report) float64 { return m.SpannedRatio }),
			suiteAvg(m, func(m metrics.Report) float64 { return float64(m.Transitions) }),
			100*suiteAvg(m, func(m metrics.Report) float64 { return m.ExitDomDupInstrsRatio }),
			suiteAvg(m, func(m metrics.Report) float64 { return float64(m.CodeExpansion) }),
			suiteAvg(m, func(m metrics.Report) float64 { return float64(m.CoverSet90) }))
		return nil
	}
	if err := add("lei", LEI, core.DefaultParams()); err != nil {
		return Figure{}, err
	}
	noExit := core.DefaultParams()
	noExit.AblateLEIExitGrowth = true
	if err := add("lei -exitgrowth", LEI, noExit); err != nil {
		return Figure{}, err
	}
	if err := add("lei+comb", LEIComb, core.DefaultParams()); err != nil {
		return Figure{}, err
	}
	noRejoin := core.DefaultParams()
	noRejoin.AblateRejoinPaths = true
	if err := add("lei+comb -rejoin", LEIComb, noRejoin); err != nil {
		return Figure{}, err
	}
	if err := add("net", NET, core.DefaultParams()); err != nil {
		return Figure{}, err
	}
	crossing := core.DefaultParams()
	crossing.AblateNETBackwardStop = true
	if err := add("net +crossing", NET, crossing); err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:    "ablation",
		Title: "ablating LEI exit growth and combination's rejoining paths",
		Table: t,
		Takeaway: "without exit growth LEI cannot grow traces from existing regions " +
			"(coverage and locality fall); without rejoining paths combination " +
			"re-admits exit-dominated duplication; NET crossing backward branches " +
			"buys locality only by paying more code expansion, where LEI's cycle " +
			"detection gets both (the paper's §2.2 observation)",
	}, nil
}
