package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/sweep"
)

// runConfig holds a run's measurement settings.
type runConfig struct {
	config
	seconds float64 // measuring time per workload
	// minPasses is the fewest timed passes a run makes, however slow the
	// host: enough that the p5 is not the fastest pass alone.
	minPasses int
	setupReps int // set-ups per run; setup_s is the fastest
	trace     bool
	tracedMin int // fewest traced passes
}

// result is one workload's measurement.
type result struct {
	Workload       string             `json:"workload"`
	SetupS         []float64          `json:"setup_s"`
	ReferenceS     float64            `json:"reference_s"`
	PassMS         []float64          `json:"pass_ms"`
	LocalPassMS    []float64          `json:"local_pass_ms,omitempty"`
	TracedPasses   int                `json:"traced_passes,omitempty"`
	JobsPerPass    int                `json:"jobs_per_pass"`
	InstrsPerPass  uint64             `json:"instrs_per_pass"`
	P50MS          float64            `json:"pass_ms_p50"`
	P90MS          float64            `json:"pass_ms_p90"`
	TailPercentile float64            `json:"tail_percentile"`
	TailMS         float64            `json:"tail_ms"`
	AllocMBPerPass float64            `json:"alloc_mb_per_pass,omitempty"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Problems       []string           `json:"problems,omitempty"`
	Warnings       []string           `json:"warnings,omitempty"`
	Metrics        map[string]value   `json:"metrics"`
	Layers         map[string]value   `json:"layers,omitempty"`
	Ledger         map[string]float64 `json:"ledger,omitempty"`
}

// measure runs one workload: the reference reports, the set-ups with their
// warm-up passes and the timed passes, which rc.trace interleaves with
// traced ones.
// Half the set-ups run before the timed passes and half after them, and
// setup_s is the fastest: the shared host runs in slow phases that can
// outlast a cluster of set-ups, and sampling both ends of the run finds the
// set-up cost outside them.
func measure(ctx context.Context, name string, rc runConfig, tr *tracer) (*result, error) {
	res := &result{Workload: name}
	before := (rc.setupReps + 1) / 2
	w, err := newWorkload(name, rc.config, before-1)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	chk, err := reference(w)
	if err != nil {
		return nil, err
	}
	res.ReferenceS = since(t)
	res.JobsPerPass = len(chk.refs)
	res.InstrsPerPass = chk.instrsPerPass()

	// setUp times one set-up of repetition rep and its warm-up pass; w, the
	// repetition the passes run on, stays open.
	setUp := func(rep int) error {
		s := w
		if rep != before-1 {
			if s, err = newWorkload(name, rc.config, rep); err != nil {
				return err
			}
		}
		t := time.Now()
		err := s.setup(ctx, chk)
		if err == nil {
			chk.begin()
			err = s.pass(ctx, chk.deliver)
			chk.end()
		}
		res.SetupS = append(res.SetupS, since(t))
		if s != w {
			s.close()
		}
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		return nil
	}
	defer w.close()
	for rep := 0; rep < before; rep++ {
		if err := setUp(rep); err != nil {
			return nil, err
		}
	}

	if rc.trace {
		if err := traceLayers(ctx, w, chk, rc, tr, res); err != nil {
			return nil, err
		}
	} else {
		run := func() error { return w.pass(ctx, chk.deliver) }
		ms, alloc, err := timedLoop(chk, run, rc.seconds, rc.minPasses)
		if err != nil {
			return nil, err
		}
		res.PassMS = ms
		res.AllocMBPerPass = float64(alloc) / 1e6 / float64(len(ms))
	}
	ms := res.PassMS
	res.P50MS, res.P90MS = median(ms), percentile(ms, 90)
	res.TailPercentile = tailPercentile(len(ms))
	if res.TailPercentile > 0 {
		res.TailMS = percentile(ms, res.TailPercentile)
	}
	for rep := before; rep < rc.setupReps; rep++ {
		if err := setUp(rep); err != nil {
			return nil, err
		}
	}
	p5 := percentile(ms, 5)
	res.Metrics = map[string]value{
		"setup_s":          {slices.Min(res.SetupS), "s"},
		"pass_ms_p5":       {p5, "ms"},
		"jobs_per_s":       {float64(res.JobsPerPass) / (p5 / 1e3), "jobs/s"},
		"sim_minstr_per_s": {float64(res.InstrsPerPass) / 1e6 / (p5 / 1e3), "Minstr/s"},
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	return res, nil
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// timedLoop runs passes until both secs have passed and minPasses have
// run, returning each pass's wall time in milliseconds and the bytes the
// loop allocated.
func timedLoop(chk *checker, run func() error, secs float64, minPasses int) ([]float64, uint64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var ms []float64
	for len(ms) < minPasses || since(start) < secs {
		d, err := timePass(chk, run)
		if err != nil {
			return nil, 0, err
		}
		ms = append(ms, d)
	}
	runtime.ReadMemStats(&after)
	return ms, after.TotalAlloc - before.TotalAlloc, nil
}

// timePass runs one checked pass and returns its wall time in milliseconds.
func timePass(chk *checker, run func() error) (float64, error) {
	chk.begin()
	t := time.Now()
	err := run()
	d := time.Since(t)
	chk.end()
	return float64(d) / 1e6, err
}

// traceLayers alternates untraced passes with traced ones, so that both
// see the same moments of a shared host, and fills res's pass times,
// per-layer metrics and ledger. For the remote workload each round also
// times a pass on a warm local Runner, the baseline the wire's overhead is
// measured against.
func traceLayers(ctx context.Context, w workload, chk *checker, rc runConfig, tr *tracer, res *result) error {
	if err := w.prepareTrace(ctx, chk); err != nil {
		return fmt.Errorf("preparing the traced passes: %w", err)
	}
	rem, isRemote := w.(*remoteWarm)

	tr.workload = res.Workload
	var passes []map[string]float64
	var staged []float64
	negCore, coreCalls := 0, 0
	start := time.Now()
	for len(passes) < rc.tracedMin || since(start) < rc.seconds {
		ms, err := timePass(chk, func() error { return w.pass(ctx, chk.deliver) })
		if err != nil {
			return err
		}
		res.PassMS = append(res.PassMS, ms)
		if isRemote {
			if ms, err = timePass(chk, func() error { return rem.localPass(ctx, chk.deliver) }); err != nil {
				return err
			}
			res.LocalPassMS = append(res.LocalPassMS, ms)
		}

		tr.pass++
		first := len(tr.spans)
		root := tr.start(0, "pass", "")
		chk.begin()
		counts, err := w.traced(tr, root, chk.deliver)
		chk.end()
		tr.stop(root)
		if err != nil {
			return err
		}
		chk.begin()
		memo, err := w.memo(ctx, chk.deliver)
		chk.end()
		if err != nil {
			return err
		}
		byLayer, bySel, neg := selfTimes(tr.spans[first:])
		negCore += neg
		coreCalls += counts.jobs
		passes = append(passes, layerValues(byLayer, bySel, counts, memo))
		sum := 0.0
		for _, l := range stagedLayers {
			sum += byLayer[l]
		}
		staged = append(staged, sum)
	}
	res.TracedPasses = len(passes)

	res.Layers = map[string]value{}
	for _, m := range perLayer {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p[m.Name])
		}
		res.Layers[m.Name] = value{median(xs), m.Unit}
	}
	for _, n := range exactCounts {
		if rc.procs > 1 && strings.HasPrefix(n, "sweep.memo") {
			continue // shards racing to a cell's first touch decide who records it
		}
		for _, p := range passes[1:] {
			if p[n] != passes[0][n] {
				res.Problems = append(res.Problems, fmt.Sprintf("%s varies across traced passes: %v then %v", n, passes[0][n], p[n]))
				break
			}
		}
	}

	// The staged sum stands for an untraced pass, or for a warm local one
	// where the wire carries the results.
	base := median(res.PassMS)
	if isRemote {
		base = median(res.LocalPassMS)
	}
	stagedMS := median(staged)
	setLayer := func(name string, v float64) { res.Layers[name] = value{v, unitOf(name)} }
	setLayer("sweep.engine_ms", base-stagedMS)
	if isRemote {
		setLayer("sweepnet.overhead_ms", median(res.PassMS)-base)
		var in, out []float64
		for _, b := range rem.wire {
			in, out = append(in, float64(b[0])), append(out, float64(b[1]))
		}
		setLayer("sweepnet.bytes_in", median(in))
		setLayer("sweepnet.bytes_out", median(out))
	}

	res.Ledger = map[string]float64{"staged": stagedMS / base}
	for _, l := range []struct{ layer, metric string }{
		{"workloads", "workloads.build_ms"},
		{"vm", "vm.ms"},
		{"tracestream.record", "tracestream.record_ms"},
		{"dynopt", "dynopt.ms"},
		{"core", "core.ms"},
		{"metrics", "metrics.ms"},
		{"sweep.engine", "sweep.engine_ms"},
	} {
		res.Ledger[l.layer] = res.Layers[l.metric].Value / base
	}

	// The idle-selector walk sends every event down the interpreter's path,
	// so it can cost more than the real call's walk: the dynopt/core split
	// is an upper bound on dynopt and a lower bound on core. Where a probe
	// outran its call, say so. It is a limit of the measurement, not a wrong
	// report, so it does not fail the run.
	if negCore > 0 {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"core self time negative in %d of %d replays or live runs: their probes took longer than the call, so dynopt is overstated and core understated there",
			negCore, coreCalls))
	}
	if v := res.Layers["core.ms"].Value; v < 0 {
		res.Warnings = append(res.Warnings, fmt.Sprintf("core.ms is negative (%.4f ms): the ledger's dynopt/core split is misleading for this workload", v))
	}
	return nil
}

// layerValues turns one traced pass's self times and counts into per-layer
// metric values.
func layerValues(byLayer, bySel map[string]float64, c passCounts, m sweep.MemoStats) map[string]float64 {
	v := map[string]float64{
		"workloads.build_ms":              byLayer["workloads"],
		"workloads.programs":              float64(c.programs),
		"vm.ms":                           byLayer["vm"],
		"vm.instrs":                       float64(c.instrs),
		"vm.ns_per_instr":                 ratio(byLayer["vm"]*1e6, float64(c.instrs)),
		"tracestream.record_ms":           byLayer["tracestream.record"],
		"tracestream.record_mb":           float64(c.recordBytes) / 1e6,
		"tracestream.decode_ns_per_event": ratio(byLayer["tracestream.decode"]*1e6, float64(c.decodeEvents)),
		"dynopt.ms":                       byLayer["dynopt"],
		"dynopt.events":                   float64(c.events),
		"dynopt.ns_per_event":             ratio(byLayer["dynopt"]*1e6, float64(c.events)),
		"core.ms":                         byLayer["core"],
		"core.regions":                    float64(c.regions),
		"metrics.ms":                      byLayer["metrics"],
		"metrics.us_per_job":              ratio(byLayer["metrics"]*1e3, float64(c.jobs)),
		"sweep.memo_hits":                 float64(m.Hits),
		"sweep.memo_misses":               float64(m.Misses),
		"sweep.memo_fallbacks":            float64(m.Fallbacks),
		"sweep.memo_hit_ratio":            ratio(float64(m.Hits), float64(m.Hits+m.Misses)),
		"sweep.memo_resident_mb":          float64(m.ResidentBytes) / 1e6,
	}
	for sel, metric := range coreMetric {
		v[metric] = ratio(bySel[sel]*1e6, float64(c.selEvents[sel]))
	}
	return v
}

// ratio returns a/b, or 0 when b is 0: a layer a workload never enters
// reports zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
