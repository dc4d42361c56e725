// Package experiments is the harness that regenerates every figure of the
// paper's evaluation (Figures 7–12 for LEI vs NET, Figures 16–19 for trace
// combination, plus the hit-rate discussion and the §6 summary numbers).
// It runs the twelve SPEC-named workloads under the four selector
// configurations and derives each figure's rows from the resulting metric
// reports. Both cmd/papertables and the repository's benchmark suite are
// thin wrappers around this package.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Selectors used throughout, in presentation order. The canonical names
// live in package sweep; these aliases keep the harness API stable.
const (
	NET      = sweep.NET
	LEI      = sweep.LEI
	NETComb  = sweep.NETComb
	LEIComb  = sweep.LEIComb
	Adaptive = sweep.Adaptive
)

// AllSelectors returns the harness's evaluation set: the paper's four
// configurations plus the adaptive per-phase meta-selector — the "dynamic"
// column the paper never had.
func AllSelectors() []string { return append(sweep.PaperSelectors(), Adaptive) }

// DefaultParams returns the paper's published algorithm parameters.
func DefaultParams() core.Params { return core.DefaultParams() }

// Related-work selector names (paper §5).
const (
	MojoNET = sweep.MojoNET
	BOA     = sweep.BOA
	WRS     = sweep.WRS
)

// RelatedSelectors returns the §5 comparison set.
func RelatedSelectors() []string { return []string{NET, MojoNET, BOA, WRS, LEI} }

// Results holds one report per (benchmark, selector).
type Results struct {
	// Scale is the workload scale multiplier used (0 = defaults).
	Scale   int
	Reports map[string]map[string]metrics.Report
}

// Get returns the report for a benchmark under a selector. It panics when
// the pair was never run — a cancelled sweep delivers only a prefix of the
// grid — so a zero-valued report can never be mistaken for a real one. Use
// Lookup to probe.
func (r *Results) Get(bench, sel string) metrics.Report {
	rep, ok := r.Lookup(bench, sel)
	if !ok {
		panic(fmt.Sprintf("experiments: no report for %s under %s", bench, sel))
	}
	return rep
}

// Lookup returns the report for a benchmark under a selector, reporting
// whether the pair was actually run.
func (r *Results) Lookup(bench, sel string) (metrics.Report, bool) {
	rep, ok := r.Reports[bench][sel]
	return rep, ok
}

// RunOne simulates a single (workload, selector) pair as a one-cell grid.
func RunOne(bench, sel string, scale int, params core.Params) (metrics.Report, error) {
	reps, err := runGrid(sweep.NewRunner(), sweep.Grid{
		Workloads: []string{bench},
		Scale:     scale,
		Selectors: []string{sel},
		Configs:   []sweep.Config{{Params: params}},
	})
	if err != nil {
		return metrics.Report{}, err
	}
	return reps[0], nil
}

// runGrid runs g on r's sweep engine and returns its reports in grid
// enumeration order (workload-major, then config, then selector). Every
// study that needs only reports runs this way, so one Runner records each
// program once for all of them.
func runGrid(r *sweep.Runner, g sweep.Grid) ([]metrics.Report, error) {
	reps := make([]metrics.Report, g.NumJobs())
	err := r.RunGrid(context.Background(), g, sweep.Options{}, sweep.FuncSink(func(res sweep.Result) {
		reps[res.Index] = res.Report
	}))
	if err != nil {
		return nil, err
	}
	return reps, nil
}

// RunAll simulates every SPEC-named benchmark under every selector — the
// paper's 12×4 grid — as a thin wrapper over the sweep engine: sharded
// across GOMAXPROCS workers, a workload's cells run on one shard while they
// fit one chunk, with per-shard pooled scratch and fail-fast cancellation.
// A failed worker (or a cancellation of ctx) stops the whole grid instead
// of draining the remaining pairs; every error observed before the stop is
// aggregated with errors.Join in deterministic order.
func RunAll(ctx context.Context, scale int, params core.Params) (*Results, error) {
	benches := workloads.SpecNames()
	sels := AllSelectors()
	res := &Results{Scale: scale, Reports: make(map[string]map[string]metrics.Report, len(benches))}
	for _, b := range benches {
		res.Reports[b] = make(map[string]metrics.Report, len(sels))
	}
	g := sweep.Grid{
		Workloads: benches,
		Scale:     scale,
		Selectors: sels,
		Configs:   []sweep.Config{{Params: params}},
	}
	err := sweep.RunGrid(ctx, g, sweep.Options{}, sweep.FuncSink(func(r sweep.Result) {
		res.Reports[r.Job.Workload][r.Job.Selector] = r.Report
	}))
	if err != nil {
		return nil, err
	}
	return res, nil
}
