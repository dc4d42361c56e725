package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// comparison is one workload × metric row of a -compare report.
type comparison struct {
	workload, metric string
	a, b             summary
	// worse is B's median relative to A's, signed so that positive is worse.
	worse   float64
	bound   float64
	spread  float64 // the wider side's quartile distance over its median
	verdict string
}

// summary is one side's median and quartiles.
type summary struct{ med, q1, q3 float64 }

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{median(xs), q1, q3}
}

// verdict judges side b against baseline a for a metric whose better
// direction and bound BENCHMARK.json gives. A difference is unresolved when
// either side's spread is wider than the bound, unless every run of b reads
// better than every run of a.
func verdict(a, b []float64, better string, bound float64) comparison {
	c := comparison{a: summarize(a), b: summarize(b), bound: bound}
	c.worse = (c.b.med - c.a.med) / c.a.med
	if better == "higher" {
		c.worse = -c.worse
	}
	c.spread = max((c.a.q3-c.a.q1)/c.a.med, (c.b.q3-c.b.q1)/c.b.med)
	allBetter := slices.Max(b) < slices.Min(a)
	if better == "higher" {
		allBetter = slices.Min(b) > slices.Max(a)
	}
	switch {
	case allBetter && c.worse < -bound:
		c.verdict = "better"
	case c.spread > bound:
		c.verdict = "unresolved"
	case c.worse > bound:
		c.verdict = "worse"
	case c.worse < -bound:
		c.verdict = "better"
	default:
		c.verdict = "within"
	}
	return c
}

// compareMain prints, for every workload and end-to-end metric the two sets
// of run records share, each side's median and quartiles, the difference
// against the metric's bound and a verdict; then it checks that every count
// in exactCounts is identical across all runs of the same workload and
// seed. It exits 1 when a metric reads worse or a count differs.
func compareMain(aPaths, bPaths []string, stdout, stderr io.Writer) int {
	specs, err := readSpecs()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	a, err := readRuns(aPaths)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readRuns(bPaths)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return printComparison(a, b, specs, stdout)
}

func printComparison(a, b []runFile, specs []metricSpec, w io.Writer) int {
	bad := false
	fmt.Fprintf(w, "%-12s %-18s %-28s %-28s %8s %7s %7s  %s\n", "workload", "metric", "A median [q1,q3]", "B median [q1,q3]", "B vs A", "bound", "spread", "verdict")
	for _, c := range compareSets(a, b, specs) {
		fmt.Fprintf(w, "%-12s %-18s %-28s %-28s %+7.1f%% %6.1f%% %6.1f%%  %s\n",
			c.workload, c.metric, c.a.String(), c.b.String(), 100*c.worse, 100*c.bound, 100*c.spread, c.verdict)
		bad = bad || c.verdict == "worse"
	}
	diffs := countDiffs(append(append([]runFile(nil), a...), b...))
	if len(diffs) == 0 {
		fmt.Fprintln(w, "counts: identical across runs of the same workload and seed")
	}
	for _, d := range diffs {
		fmt.Fprintln(w, "counts differ:", d)
	}
	if bad || len(diffs) > 0 {
		return 1
	}
	return 0
}

func (s summary) String() string {
	return fmt.Sprintf("%.4g [%.4g,%.4g]", s.med, s.q1, s.q3)
}

// compareSets pairs the two sides' values of every end-to-end metric, by
// workload.
func compareSets(a, b []runFile, specs []metricSpec) []comparison {
	var out []comparison
	for _, wl := range workloadNames {
		for _, m := range specs {
			av, bv := collect(a, wl, m.Name), collect(b, wl, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := verdict(av, bv, m.Better, m.Bound)
			c.workload, c.metric = wl, m.Name
			out = append(out, c)
		}
	}
	return out
}

// collect gathers a metric's value from every untraced run that measured
// workload wl, or from every traced one when there is no untraced run: a
// traced run times fewer untraced passes.
func collect(runs []runFile, wl, metric string) []float64 {
	for _, traced := range []bool{false, true} {
		var xs []float64
		for _, r := range runs {
			if res, ok := r.Workloads[wl]; ok && r.Env.Traced == traced {
				if v, ok := res.Metrics[metric]; ok {
					xs = append(xs, v.Value)
				}
			}
		}
		if len(xs) > 0 {
			return xs
		}
	}
	return nil
}

// countDiffs lists every exact count that differs between traced runs of
// the same workload and seed. Memo counts of runs with more than one shard
// are left out: which shard records a cell first depends on timing.
func countDiffs(runs []runFile) []string {
	type key struct {
		wl   string
		seed int64
	}
	first := map[key]map[string]value{}
	var diffs []string
	for _, r := range runs {
		for wl, res := range r.Workloads {
			if res.Layers == nil {
				continue
			}
			k := key{wl, r.Env.Seed}
			prev, ok := first[k]
			if !ok {
				first[k] = res.Layers
				continue
			}
			for _, n := range exactCounts {
				if r.Env.GOMAXPROCS > 1 && strings.HasPrefix(n, "sweep.memo") {
					continue
				}
				if prev[n] != res.Layers[n] {
					diffs = append(diffs, fmt.Sprintf("%s seed %d %s: %v and %v", wl, r.Env.Seed, n, prev[n].Value, res.Layers[n].Value))
				}
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}

// readSpecs reads the end-to-end metrics and their bounds from
// BENCHMARK.json in the repository root, the directory the benchmark runs
// from. Changing a bound is an edit to that file.
func readSpecs() ([]metricSpec, error) {
	const path = "BENCHMARK.json"
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bench.EndToEnd, nil
}

func readRuns(paths []string) ([]runFile, error) {
	var runs []runFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}
