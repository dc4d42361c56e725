package experiments

import (
	"fmt"

	"repro/internal/dynopt"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// This file adds two robustness studies beyond the paper's fixed benchmark
// suite: a corpus of random structured programs (do the paper's qualitative
// conclusions hold beyond hand-shaped workloads?) and a bounded-code-cache
// sweep (the behaviour the paper predicts in §2.3 but does not evaluate).

// RandomCorpus runs NET, LEI, and their combined variants over n seeded
// random programs and reports suite-level ratios, mirroring the shape of
// the headline figures.
func RandomCorpus(r *sweep.Runner, n int, baseSeed int64) (Figure, error) {
	if n <= 0 {
		n = 20
	}
	type agg struct {
		transitions, cover, expansion, stubs, hit float64
	}
	sums := map[string]*agg{}
	for _, sel := range AllSelectors() {
		sums[sel] = &agg{}
	}
	for i := 0; i < n; i++ {
		prog := workloads.Random(workloads.GenConfig{
			Seed:       baseSeed + int64(i),
			Funcs:      2 + i%5,
			MaxDepth:   2 + i%3,
			Iters:      300, // loops must comfortably exceed the selection thresholds
			Constructs: 4 + i%5,
		})
		for _, sel := range AllSelectors() {
			rep, err := r.Simulate(prog, sel, dynopt.Config{}, nil)
			if err != nil {
				return Figure{}, fmt.Errorf("experiments: random corpus seed %d under %s: %w",
					baseSeed+int64(i), sel, err)
			}
			a := sums[sel]
			a.transitions += float64(rep.Transitions)
			a.cover += float64(rep.CoverSet90)
			a.expansion += float64(rep.CodeExpansion)
			a.stubs += float64(rep.Stubs)
			a.hit += rep.HitRate
		}
	}
	t := stats.NewTable("", []string{"hit%", "transitions", "cover90", "expansion", "stubs"},
		"%7.2f", "%12.0f", "%8.2f", "%10.0f", "%7.1f")
	for _, sel := range AllSelectors() {
		a := sums[sel]
		t.Add(sel,
			100*a.hit/float64(n),
			a.transitions/float64(n),
			a.cover/float64(n),
			a.expansion/float64(n),
			a.stubs/float64(n))
	}
	return Figure{
		ID:    "random-corpus",
		Title: fmt.Sprintf("suite averages over %d random structured programs (robustness)", n),
		Table: t,
		Takeaway: "the paper's ordering (LEI fewer transitions and smaller cover sets " +
			"than NET; combination improving both) should survive unshaped programs",
	}, nil
}

// BoundedCache sweeps code-cache limits and reports flush counts and hit
// rates for NET vs combined LEI, quantifying the paper's §2.3 prediction
// that selecting less code helps bounded caches.
func BoundedCache(r *sweep.Runner, scale int) (Figure, error) {
	t := stats.NewTable("", []string{"NET-hit%", "NET-flushes", "cLEI-hit%", "cLEI-flushes"},
		"%9.2f", "%11.0f", "%10.2f", "%12.0f")
	benchesUsed := []string{"gcc", "perlbmk", "vortex"}
	for _, limit := range []int{0, 2048, 1024, 512} {
		var netHit, netFlush, cleiHit, cleiFlush float64
		for _, b := range benchesUsed {
			prog := workloads.MustGet(b).Build(scale)
			for _, sel := range []string{NET, LEIComb} {
				var flushes int
				rep, err := r.Simulate(prog, sel, dynopt.Config{CacheLimitBytes: limit}, func(res dynopt.Result) {
					flushes = res.Cache.Flushes()
				})
				if err != nil {
					return Figure{}, err
				}
				if sel == NET {
					netHit += rep.HitRate
					netFlush += float64(flushes)
				} else {
					cleiHit += rep.HitRate
					cleiFlush += float64(flushes)
				}
			}
		}
		n := float64(len(benchesUsed))
		label := "unbounded"
		if limit > 0 {
			label = fmt.Sprintf("%dB", limit)
		}
		t.Add(label, 100*netHit/n, netFlush/n, 100*cleiHit/n, cleiFlush/n)
	}
	return Figure{
		ID:    "bounded",
		Title: "bounded code cache: hit rate and full flushes, NET vs combined LEI (extension)",
		Table: t,
		Takeaway: "under tight limits combined LEI flushes more often (it re-selects " +
			"quickly) but loses far less hit rate than NET — the memory-pressure " +
			"benefit the paper predicts for bounded caches without evaluating it (§2.3)",
	}, nil
}
