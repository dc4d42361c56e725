package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/sweep"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func TestRandomCorpusOrderings(t *testing.T) {
	// On a corpus of random programs the paper's central orderings must
	// survive: LEI produces fewer region transitions than NET, and the
	// combined variants never lose coverage.
	var netTrans, leiTrans float64
	var netHit, leiHit float64
	const n = 12
	for i := 0; i < n; i++ {
		prog := workloads.Random(workloads.GenConfig{
			Seed: 100 + int64(i), Funcs: 2 + i%4, MaxDepth: 2 + i%3,
			Iters: 300, Constructs: 4 + i%4,
		})
		for _, sel := range []string{NET, LEI} {
			s, err := sweep.NewSelector(sel, core.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			res, err := dynopt.Run(prog, dynopt.Config{Selector: s, VM: vm.Config{}})
			if err != nil {
				t.Fatalf("seed %d / %s: %v", 100+i, sel, err)
			}
			if sel == NET {
				netTrans += float64(res.Report.Transitions)
				netHit += res.Report.HitRate
			} else {
				leiTrans += float64(res.Report.Transitions)
				leiHit += res.Report.HitRate
			}
		}
	}
	if leiTrans >= netTrans {
		t.Errorf("corpus transitions: LEI %.0f vs NET %.0f", leiTrans, netTrans)
	}
	if leiHit < netHit-0.05*n {
		t.Errorf("corpus hit rates: LEI %.3f vs NET %.3f", leiHit/n, netHit/n)
	}
}

func TestBoundedCacheFigure(t *testing.T) {
	f, err := BoundedCache(sweep.NewRunner(), smallScale*4)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "bounded" || f.Table == nil {
		t.Fatalf("figure = %+v", f)
	}
}

func TestBoundedCacheHitRateAdvantage(t *testing.T) {
	// At a tight limit, combined LEI must retain a better hit rate than
	// NET on a multi-loop workload — the §2.3 prediction.
	prog := workloads.MustGet("gcc").Build(300)
	run := func(sel string) float64 {
		s, err := sweep.NewSelector(sel, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := dynopt.Run(prog, dynopt.Config{Selector: s, VM: vm.Config{}, CacheLimitBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache.Flushes() == 0 {
			t.Fatalf("%s: 512B cache never flushed", sel)
		}
		return res.Report.HitRate
	}
	if lei, net := run(LEIComb), run(NET); lei <= net {
		t.Errorf("bounded hit rate: cLEI %.3f vs NET %.3f", lei, net)
	}
}

func TestInputSensitivityHolds(t *testing.T) {
	// The suite conclusions must not depend on the input seed: for two
	// alternate inputs, LEI still beats NET on suite transitions.
	for input := 1; input <= 2; input++ {
		var netTrans, leiTrans float64
		for _, b := range workloads.SpecNames() {
			w := workloads.MustGet(b)
			prog := w.BuildInput(smallScale, input)
			for _, sel := range []string{NET, LEI} {
				s, err := sweep.NewSelector(sel, core.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				res, err := dynopt.Run(prog, dynopt.Config{Selector: s, VM: vm.Config{}})
				if err != nil {
					t.Fatalf("input %d, %s/%s: %v", input, b, sel, err)
				}
				if sel == NET {
					netTrans += float64(res.Report.Transitions)
				} else {
					leiTrans += float64(res.Report.Transitions)
				}
			}
		}
		if leiTrans >= netTrans {
			t.Errorf("input %d: LEI transitions %.0f not below NET %.0f", input, leiTrans, netTrans)
		}
	}
}

func TestBuildInputVariesProgramBehaviour(t *testing.T) {
	w := workloads.MustGet("twolf")
	p0 := w.BuildInput(50, 0)
	p1 := w.BuildInput(50, 1)
	s0, err := vm.Run(p0, vm.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := vm.Run(p1, vm.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s0 == s1 {
		t.Error("input variants ran identically; seeds not applied")
	}
	// Input 0 must be exactly the default build.
	sd, err := vm.Run(w.Build(50), vm.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s0 != sd {
		t.Error("input 0 differs from the default build")
	}
}
