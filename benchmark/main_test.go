package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/metrics"
)

func tinyRun(t *testing.T) runConfig {
	return runConfig{
		config:    config{shape: tinyShape, seed: 7, procs: 1, workDir: t.TempDir()},
		minPasses: 2,
		setupReps: 1,
		trace:     true,
		tracedMin: 1,
	}
}

// TestSmokeAllWorkloads runs every workload at tiny scales — one warm-up,
// two timed passes and one traced pass — and checks that each reports
// every metric with no failed job.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := measure(context.Background(), name, tinyRun(t), newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || len(res.Problems) != 0 {
				t.Fatalf("%d of %d jobs failed; problems %q", res.Failed, res.Attempted, res.Problems)
			}
			if res.Attempted == 0 {
				t.Fatal("no job attempted")
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			for _, m := range perLayer {
				if v, ok := res.Layers[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v, want a value in %s", m.Name, v, m.Unit)
				}
			}
			if res.Layers["core.ms"].Value <= 0 || res.Layers["dynopt.events"].Value <= 0 {
				t.Errorf("traced pass staged no replay: %+v", res.Layers)
			}
		})
	}
}

// TestAlteredReportCountsAsFailure delivers one report with a changed field
// and drops another: both jobs count as failed.
func TestAlteredReportCountsAsFailure(t *testing.T) {
	w := newLiveLarge(tinyRun(t).config)
	chk, err := reference(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(context.Background(), chk); err != nil {
		t.Fatal(err)
	}
	chk.begin()
	err = w.pass(context.Background(), func(i int, rep metrics.Report) {
		switch i {
		case 1:
			rep.CacheExits++
		case 2:
			return
		}
		chk.deliver(i, rep)
	})
	chk.end()
	if err != nil {
		t.Fatal(err)
	}
	if chk.failed != 2 || chk.attempted != len(w.jobs()) {
		t.Fatalf("failed %d of %d attempted, want 2 of %d", chk.failed, chk.attempted, len(w.jobs()))
	}
	line, ok := resultLine([]*result{{Attempted: chk.attempted, Failed: chk.failed}}, false)
	if ok {
		t.Fatalf("result %s reads correct", line)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 50},
		{99, 50},
		{100, 90},
		{999, 90},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && tc.n-rank(tc.n, p) < minBeyond {
			t.Errorf("p%g of %d samples leaves %d beyond", p, tc.n, tc.n-rank(tc.n, p))
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %g, want 9", got)
	}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %g, %g, want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "lower", "within"},
		{"slower within bound", []float64{105, 106, 104, 105, 105}, "lower", "within"},
		{"slower beyond bound", []float64{120, 121, 119, 120, 120}, "lower", "worse"},
		{"faster beyond bound", []float64{80, 81, 79, 80, 80}, "lower", "better"},
		{"rate fell beyond bound", []float64{80, 81, 79, 80, 80}, "higher", "worse"},
		{"rate rose beyond bound", []float64{120, 121, 119, 120, 120}, "higher", "better"},
		{"noisy", []float64{70, 130, 100, 75, 125}, "lower", "unresolved"},
		{"noisy but every run better", []float64{60, 90, 70, 65, 85}, "lower", "better"},
	} {
		if got := verdict(steady, tc.b, tc.better, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestThresholdsSpanTheRange(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ts := thresholds(seed, 8)
		for i, v := range ts {
			lo, hi := 4+i*157/8, 4+(i+1)*157/8
			if v < lo || v > hi || v > 160 {
				t.Fatalf("seed %d: threshold %d = %d outside stratum [%d,%d]", seed, i, v, lo, hi)
			}
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps the metric tables in step with the
// benchmark's declaration at the repository root.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %q, want %q", names, workloadNames)
	}
	if !slices.Equal(bench.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, want %+v", bench.EndToEnd, endToEnd)
	}
	if !slices.Equal(bench.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v, want %+v", bench.PerLayer, perLayer)
	}
}
