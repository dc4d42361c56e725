package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/icache"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func TestBuildExtra(t *testing.T) {
	r := sweep.NewRunner()
	for _, id := range ExtraIDs() {
		f, err := BuildExtra(r, id, smallScale)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if f.ID != id || f.Title == "" || f.Takeaway == "" {
			t.Errorf("%s: incomplete figure %+v", id, f)
		}
		if !strings.Contains(f.String(), "==") {
			t.Errorf("%s: unrendered figure", id)
		}
	}
	if _, err := BuildExtra(r, "bogus", 1); err == nil {
		t.Error("bogus extra accepted")
	}
}

// TestGridStudiesShareRunner builds two grid studies on one Runner: the
// first records each SPEC program exactly once, and the second, which runs
// the same programs under other selectors, records nothing.
func TestGridStudiesShareRunner(t *testing.T) {
	r := sweep.NewRunner()
	if _, err := BuildExtra(r, "sweep-buffer", smallScale); err != nil {
		t.Fatal(err)
	}
	first := r.MemoStats()
	if fills, want := first.Misses-first.Fallbacks, uint64(len(workloads.SpecNames())); fills != want {
		t.Fatalf("sweep-buffer filled the store %d times, want once per SPEC program (%d): %v", fills, want, first)
	}
	if _, err := BuildExtra(r, "related", smallScale); err != nil {
		t.Fatal(err)
	}
	second := r.MemoStats()
	if second.Misses != first.Misses || second.Hits <= first.Hits {
		t.Fatalf("related recorded on a Runner that already holds every program:\nafter sweep-buffer: %v\nafter related:      %v", first, second)
	}
}

// TestAblationExitGrowth: disabling LEI's exit-grown traces must reduce
// cache coverage — the design choice is load-bearing.
func TestAblationExitGrowth(t *testing.T) {
	base := core.DefaultParams()
	ablated := core.DefaultParams()
	ablated.AblateLEIExitGrowth = true
	var hitBase, hitAblated float64
	for _, b := range []string{"gzip", "eon", "gcc", "perlbmk"} {
		rb, err := RunOne(b, LEI, 0, base)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := RunOne(b, LEI, 0, ablated)
		if err != nil {
			t.Fatal(err)
		}
		hitBase += rb.HitRate
		hitAblated += ra.HitRate
		if ra.Regions > rb.Regions {
			t.Errorf("%s: ablated LEI selected more regions (%d vs %d)", b, ra.Regions, rb.Regions)
		}
	}
	if hitAblated >= hitBase {
		t.Errorf("exit-growth ablation did not reduce coverage: %.3f vs %.3f",
			hitAblated/4, hitBase/4)
	}
}

// TestAblationRejoinPaths: without Figure 15's rejoin marking, combined
// regions shed their rejoining paths and exit-dominated duplication grows.
func TestAblationRejoinPaths(t *testing.T) {
	base := core.DefaultParams()
	ablated := core.DefaultParams()
	ablated.AblateRejoinPaths = true
	var dupBase, dupAblated float64
	var transBase, transAblated uint64
	for _, b := range []string{"gcc", "vpr", "twolf", "perlbmk"} {
		rb, err := RunOne(b, LEIComb, 0, base)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := RunOne(b, LEIComb, 0, ablated)
		if err != nil {
			t.Fatal(err)
		}
		dupBase += rb.ExitDomDupInstrsRatio
		dupAblated += ra.ExitDomDupInstrsRatio
		transBase += rb.Transitions
		transAblated += ra.Transitions
	}
	if dupAblated <= dupBase {
		t.Errorf("rejoin ablation did not increase exit-dominated duplication: %.4f vs %.4f",
			dupAblated/4, dupBase/4)
	}
	if transAblated <= transBase {
		t.Errorf("rejoin ablation did not increase transitions: %d vs %d",
			transAblated, transBase)
	}
}

// TestSweepTProfFootnote8 reproduces the paper's footnote 8 directionally:
// T_prof=5/T_min=2 still improves on plain LEI (ratios below 1) but less
// than the full T_prof=15/T_min=5 configuration, with less observation
// memory.
func TestSweepTProfFootnote8(t *testing.T) {
	r := sweep.NewRunner()
	baseLEI, err := runSuite(r, LEI, 0, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	full := core.DefaultParams()
	small := core.DefaultParams()
	small.TProf, small.TMin = 5, 2
	combFull, err := runSuite(r, LEIComb, 0, full)
	if err != nil {
		t.Fatal(err)
	}
	combSmall, err := runSuite(r, LEIComb, 0, small)
	if err != nil {
		t.Fatal(err)
	}
	coverFull := relAvg(combFull, baseLEI, func(m metrics.Report) float64 { return float64(m.CoverSet90) })
	coverSmall := relAvg(combSmall, baseLEI, func(m metrics.Report) float64 { return float64(m.CoverSet90) })
	if coverSmall >= 1.0 {
		t.Errorf("T_prof=5 combination no longer improves cover sets: %.3f", coverSmall)
	}
	if coverFull > coverSmall {
		t.Logf("full config improves more, as expected: %.3f vs %.3f", coverFull, coverSmall)
	}
	obsFull := suiteAvg(combFull, func(m metrics.Report) float64 { return float64(m.ObservedBytesHighWater) })
	obsSmall := suiteAvg(combSmall, func(m metrics.Report) float64 { return float64(m.ObservedBytesHighWater) })
	if obsSmall >= obsFull {
		t.Errorf("smaller T_prof did not reduce observation memory: %.0f vs %.0f", obsSmall, obsFull)
	}
}

// TestSuiteAveragesBitIdentical requires relAvg and suiteAvg to return the
// same float64, bit for bit, on every call over the same suites. The values
// span many magnitudes, so a sum whose order varied from call to call would
// round differently.
func TestSuiteAveragesBitIdentical(t *testing.T) {
	n := len(workloads.SpecNames())
	num, den := make([]metrics.Report, n), make([]metrics.Report, n)
	for i := range n {
		num[i].HitRate = math.Pow(10, float64(i)) / 3
		den[i].HitRate = float64(1 + i%2)
	}
	hitRate := func(m metrics.Report) float64 { return m.HitRate }
	rel, avg := map[uint64]bool{}, map[uint64]bool{}
	for range 200 {
		rel[math.Float64bits(relAvg(num, den, hitRate))] = true
		avg[math.Float64bits(suiteAvg(num, hitRate))] = true
	}
	if len(rel) != 1 || len(avg) != 1 {
		t.Errorf("200 calls gave %d distinct relAvg and %d distinct suiteAvg results, want 1 each", len(rel), len(avg))
	}
}

// TestSweepHistoryCapMonotonic: a tiny history buffer must not beat the
// paper's 500-entry buffer on cycle spanning.
func TestSweepHistoryCapMonotonic(t *testing.T) {
	tiny := core.DefaultParams()
	tiny.HistoryCap = 8
	paper := core.DefaultParams()
	var spannedTiny, spannedPaper float64
	for _, b := range []string{"mcf", "twolf", "vpr"} {
		rt, err := RunOne(b, LEI, 0, tiny)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := RunOne(b, LEI, 0, paper)
		if err != nil {
			t.Fatal(err)
		}
		spannedTiny += rt.SpannedRatio
		spannedPaper += rp.SpannedRatio
	}
	if spannedTiny > spannedPaper {
		t.Errorf("8-entry buffer spans more cycles (%.3f) than 500 (%.3f)",
			spannedTiny/3, spannedPaper/3)
	}
}

// TestAblationNETBackwardStop verifies the paper's §2.2 observation:
// letting NET extend across backward branches increases code expansion,
// while LEI reaches similar locality without paying it.
func TestAblationNETBackwardStop(t *testing.T) {
	base := core.DefaultParams()
	crossing := core.DefaultParams()
	crossing.AblateNETBackwardStop = true
	r := sweep.NewRunner()
	mb, err := runSuite(r, NET, 0, base)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := runSuite(r, NET, 0, crossing)
	if err != nil {
		t.Fatal(err)
	}
	expBase := suiteAvg(mb, func(m metrics.Report) float64 { return float64(m.CodeExpansion) })
	expCross := suiteAvg(mc, func(m metrics.Report) float64 { return float64(m.CodeExpansion) })
	transBase := suiteAvg(mb, func(m metrics.Report) float64 { return float64(m.Transitions) })
	transCross := suiteAvg(mc, func(m metrics.Report) float64 { return float64(m.Transitions) })
	if expCross <= expBase {
		t.Errorf("crossing NET expansion %.1f not above base %.1f", expCross, expBase)
	}
	if transCross >= transBase {
		t.Errorf("crossing NET transitions %.0f not below base %.0f", transCross, transBase)
	}
}

// TestICacheOrdering: the simulated i-cache confirms the locality story —
// LEI-based selection misses no more than NET per cached instruction.
func TestICacheOrdering(t *testing.T) {
	f, err := ICacheStudy(sweep.NewRunner(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "icache" {
		t.Fatal("wrong figure")
	}
	// Recompute the two suite aggregates directly for the assertion.
	missPer1k := func(sel string) float64 {
		var misses, instrs float64
		for _, b := range workloads.SpecNames() {
			prog := workloads.MustGet(b).Build(0)
			s, err := sweep.NewSelector(sel, core.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			ic, err := icache.New(icache.Config{SizeBytes: 1 << 10, LineBytes: 32, Ways: 2})
			if err != nil {
				t.Fatal(err)
			}
			res, err := dynopt.Run(prog, dynopt.Config{Selector: s, VM: vm.Config{}, ICache: ic})
			if err != nil {
				t.Fatal(err)
			}
			misses += float64(ic.Misses())
			instrs += float64(res.Report.CacheInstrs)
		}
		return 1000 * misses / instrs
	}
	net, lei, clei := missPer1k(NET), missPer1k(LEI), missPer1k(LEIComb)
	if lei > net {
		t.Errorf("i-cache misses/1k: LEI %.3f above NET %.3f", lei, net)
	}
	if clei > lei {
		t.Errorf("i-cache misses/1k: cLEI %.3f above LEI %.3f", clei, lei)
	}
}
