// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, each re-running the relevant simulations and reporting the
// figure's headline statistic as a custom metric (the printed rows come
// from cmd/papertables; these benches make every figure's regeneration a
// first-class, timed target), plus component throughput benchmarks for the
// simulator substrate.
//
//	go test -bench=Fig -benchmem        # all figure benches
//	go test -bench=BenchmarkVM          # interpreter throughput
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/sweepnet"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// benchScale keeps figure benchmarks snappy while exercising selection.
const benchScale = 120

var benchSuite = sync.OnceValues(func() (*experiments.Results, error) {
	return experiments.RunAll(context.Background(), benchScale, core.DefaultParams())
})

// figureBench reruns the full benchmark matrix per iteration and reports
// the figure's summary statistics.
func figureBench(b *testing.B, id string, report func(*experiments.Results, *testing.B)) {
	b.Helper()
	// Prime once so the first iteration's cost matches the rest.
	if _, err := benchSuite(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAll(context.Background(), benchScale, core.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(res, b)
		}
	}
}

func metric(res *experiments.Results) func(sel, bench string) map[string]float64 {
	return func(sel, bench string) map[string]float64 {
		r := res.Get(bench, sel)
		return map[string]float64{
			"spanned":     r.SpannedRatio,
			"executed":    r.ExecutedRatio,
			"expansion":   float64(r.CodeExpansion),
			"transitions": float64(r.Transitions),
			"cover90":     float64(r.CoverSet90),
			"counters":    float64(r.CountersHighWater),
			"dompct":      r.ExitDominatedRatio,
			"duppct":      r.ExitDomDupInstrsRatio,
			"stubs":       float64(r.Stubs),
			"obspct":      r.ObservedPctOfCache,
			"hit":         r.HitRate,
		}
	}
}

func avgDelta(res *experiments.Results, a, sel2, key string) float64 {
	m := metric(res)
	var xs []float64
	for _, bench := range workloads.SpecNames() {
		xs = append(xs, m(a, bench)[key]-m(sel2, bench)[key])
	}
	return stats.Mean(xs)
}

func avgRatio(res *experiments.Results, num, den, key string) float64 {
	m := metric(res)
	var xs []float64
	for _, bench := range workloads.SpecNames() {
		xs = append(xs, stats.Ratio(m(num, bench)[key], m(den, bench)[key]))
	}
	return stats.Mean(xs)
}

func avgOf(res *experiments.Results, sel, key string) float64 {
	m := metric(res)
	var xs []float64
	for _, bench := range workloads.SpecNames() {
		xs = append(xs, m(sel, bench)[key])
	}
	return stats.Mean(xs)
}

// BenchmarkFig07 regenerates Figure 7: LEI's increase over NET in spanned
// and executed cycle ratios (percentage points, averaged).
func BenchmarkFig07SpannedCycles(b *testing.B) {
	figureBench(b, "fig7", func(res *experiments.Results, b *testing.B) {
		b.ReportMetric(100*avgDelta(res, experiments.LEI, experiments.NET, "spanned"), "spanned+pp")
		b.ReportMetric(100*avgDelta(res, experiments.LEI, experiments.NET, "executed"), "executed+pp")
	})
}

// BenchmarkFig08 regenerates Figure 8: LEI relative to NET in code
// expansion and region transitions (paper: 0.92 and 0.80).
func BenchmarkFig08ExpansionTransitions(b *testing.B) {
	figureBench(b, "fig8", func(res *experiments.Results, b *testing.B) {
		b.ReportMetric(avgRatio(res, experiments.LEI, experiments.NET, "expansion"), "expansion-rel")
		b.ReportMetric(avgRatio(res, experiments.LEI, experiments.NET, "transitions"), "transitions-rel")
	})
}

// BenchmarkFig09 regenerates Figure 9: 90% cover set sizes (paper: LEI 18%
// smaller on average).
func BenchmarkFig09CoverSet(b *testing.B) {
	figureBench(b, "fig9", func(res *experiments.Results, b *testing.B) {
		b.ReportMetric(avgOf(res, experiments.NET, "cover90"), "net-cover90")
		b.ReportMetric(avgOf(res, experiments.LEI, "cover90"), "lei-cover90")
		b.ReportMetric(avgRatio(res, experiments.LEI, experiments.NET, "cover90"), "rel")
	})
}

// BenchmarkFig10 regenerates Figure 10: counter memory (paper: LEI needs
// about two-thirds of NET's).
func BenchmarkFig10Counters(b *testing.B) {
	figureBench(b, "fig10", func(res *experiments.Results, b *testing.B) {
		b.ReportMetric(avgRatio(res, experiments.LEI, experiments.NET, "counters"), "counters-rel")
	})
}

// BenchmarkFig11 regenerates Figure 11: exit-dominated duplication as a
// share of selected instructions (paper: 1-7%).
func BenchmarkFig11ExitDomDuplication(b *testing.B) {
	figureBench(b, "fig11", func(res *experiments.Results, b *testing.B) {
		b.ReportMetric(100*avgOf(res, experiments.NET, "duppct"), "net-dup%")
		b.ReportMetric(100*avgOf(res, experiments.LEI, "duppct"), "lei-dup%")
	})
}

// BenchmarkFig12 regenerates Figure 12: the share of traces that are
// exit-dominated (paper: ~15% NET, ~22% LEI).
func BenchmarkFig12ExitDominated(b *testing.B) {
	figureBench(b, "fig12", func(res *experiments.Results, b *testing.B) {
		b.ReportMetric(100*avgOf(res, experiments.NET, "dompct"), "net-dom%")
		b.ReportMetric(100*avgOf(res, experiments.LEI, "dompct"), "lei-dom%")
	})
}

// BenchmarkFig16 regenerates Figure 16: transitions under combination
// (paper: 85% for NET, 64% for LEI).
func BenchmarkFig16CombTransitions(b *testing.B) {
	figureBench(b, "fig16", func(res *experiments.Results, b *testing.B) {
		b.ReportMetric(avgRatio(res, experiments.NETComb, experiments.NET, "transitions"), "cnet-rel")
		b.ReportMetric(avgRatio(res, experiments.LEIComb, experiments.LEI, "transitions"), "clei-rel")
	})
}

// BenchmarkFig17 regenerates Figure 17: cover sets under combination
// (paper: -15% NET, -28% LEI).
func BenchmarkFig17CombCoverSet(b *testing.B) {
	figureBench(b, "fig17", func(res *experiments.Results, b *testing.B) {
		b.ReportMetric(avgRatio(res, experiments.NETComb, experiments.NET, "cover90"), "cnet-rel")
		b.ReportMetric(avgRatio(res, experiments.LEIComb, experiments.LEI, "cover90"), "clei-rel")
	})
}

// BenchmarkFig18 regenerates Figure 18: observed-trace storage relative to
// the estimated cache size (paper: ~6% cNET, ~13% cLEI; inflated here by
// tiny synthetic caches — the cLEI > cNET ordering is the preserved shape).
func BenchmarkFig18ObservedMemory(b *testing.B) {
	figureBench(b, "fig18", func(res *experiments.Results, b *testing.B) {
		b.ReportMetric(100*avgOf(res, experiments.NETComb, "obspct"), "cnet-obs%")
		b.ReportMetric(100*avgOf(res, experiments.LEIComb, "obspct"), "clei-obs%")
	})
}

// BenchmarkFig19 regenerates Figure 19: exit stubs under combination
// (paper: -18% NET, -26% LEI).
func BenchmarkFig19CombStubs(b *testing.B) {
	figureBench(b, "fig19", func(res *experiments.Results, b *testing.B) {
		b.ReportMetric(avgRatio(res, experiments.NETComb, experiments.NET, "stubs"), "cnet-rel")
		b.ReportMetric(avgRatio(res, experiments.LEIComb, experiments.LEI, "stubs"), "clei-rel")
	})
}

// BenchmarkSummary regenerates the §6 composite: combined LEI vs NET
// (paper: -9% expansion, -32% stubs, ~half the transitions, -44% cover).
func BenchmarkSummary(b *testing.B) {
	figureBench(b, "summary", func(res *experiments.Results, b *testing.B) {
		b.ReportMetric(avgRatio(res, experiments.LEIComb, experiments.NET, "expansion"), "expansion-rel")
		b.ReportMetric(avgRatio(res, experiments.LEIComb, experiments.NET, "stubs"), "stubs-rel")
		b.ReportMetric(avgRatio(res, experiments.LEIComb, experiments.NET, "transitions"), "transitions-rel")
		b.ReportMetric(avgRatio(res, experiments.LEIComb, experiments.NET, "cover90"), "cover90-rel")
	})
}

// --- Component throughput benchmarks ---

// BenchmarkPipeline is the headline end-to-end benchmark: one
// experiments.RunAll per iteration (every SPEC-named workload under the
// four paper selectors and adaptive), reporting normalized throughput (ns
// per simulated instruction) and allocation pressure (heap bytes per
// simulated instruction). RunAll builds a fresh sweep Runner with
// memoization on, so each iteration records and replays, not a live
// matrix: the first job of each workload interprets the program once into
// a recording, with no simulator attached, and all five jobs replay it.
// The numbers in docs/PERFORMANCE.md and BENCH_pipeline.json come from
// this benchmark via scripts/bench.sh.
func BenchmarkPipeline(b *testing.B) {
	var ms0, ms1 runtime.MemStats
	var instrs uint64
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAll(context.Background(), benchScale, core.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		instrs = 0
		for _, per := range res.Reports {
			for _, rep := range per {
				instrs += rep.TotalInstrs
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs*uint64(b.N)), "ns/instr")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(instrs*uint64(b.N)), "B/instr")
}

// BenchmarkSweep measures the sharded sweep engine over the paper's full
// 12×4 grid at increasing shard counts. At these shard counts each
// workload's four cells form one chunk, so a shard records its program
// once and replays it for the other three, and the jobs/s metric scales
// with the shards up to the CPUs GOMAXPROCS gives the process, until the
// grid's longest chunks dominate.
func BenchmarkSweep(b *testing.B) {
	grid := sweep.Grid{
		Workloads: workloads.SpecNames(),
		Scale:     benchScale,
		Selectors: sweep.PaperSelectors(),
	}
	njobs := grid.NumJobs()
	shardCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		shardCounts = append(shardCounts, n)
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var sink sweep.CountingSink
				if err := sweep.RunGrid(context.Background(), grid, sweep.Options{Shards: shards}, &sink); err != nil {
					b.Fatal(err)
				}
				if sink.N != njobs {
					b.Fatalf("delivered %d of %d jobs", sink.N, njobs)
				}
			}
			b.ReportMetric(float64(njobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkSweepRemote measures the distributed sweep path end to end: the
// paper's full 12×4 grid through the wire codec, two in-process loopback
// sweepd workers, and the coordinator's ordered merge. Its delta over
// BenchmarkSweep is not the protocol's overhead alone: the workers start
// once and keep their memos warm across b.N, so after the first iteration
// every job replays, while sweep.RunGrid builds a fresh Runner each
// iteration and records every cell again. The delta is therefore the
// protocol's cost (framing, varint codec, TCP loopback, reorder admission)
// minus the recordings the warm workers skip.
func BenchmarkSweepRemote(b *testing.B) {
	grid := sweep.Grid{
		Workloads: workloads.SpecNames(),
		Scale:     benchScale,
		Selectors: sweep.PaperSelectors(),
	}
	njobs := grid.NumJobs()
	const workers = 2
	addrs := make([]string, workers)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		wg.Add(1)
		go func(ln net.Listener) {
			defer wg.Done()
			sweepnet.Serve(ctx, ln, sweepnet.ServerOptions{})
		}(ln)
	}
	defer wg.Wait()
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink sweep.CountingSink
		if err := sweepnet.RunGrid(context.Background(), addrs, grid, sweepnet.Options{}, &sink); err != nil {
			b.Fatal(err)
		}
		if sink.N != njobs {
			b.Fatalf("delivered %d of %d jobs", sink.N, njobs)
		}
	}
	b.ReportMetric(float64(njobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkPipelineLarge measures end-to-end simulation throughput on the
// large synthetic stress program (hundreds of thousands of dynamic
// instructions over a static footprint that exercises the dense
// per-address tables) under all four paper selectors on one pooled shard.
// Its ns/instr should stay within 2× of BenchmarkPipeline's micro-suite
// figure.
func BenchmarkPipelineLarge(b *testing.B) {
	const largeScale = 400_000
	prog := workloads.MustGet("synthetic").Build(largeScale)
	shard := sweep.NewShard()
	var ms0, ms1 runtime.MemStats
	var instrs uint64
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instrs = 0
		for _, sel := range sweep.PaperSelectors() {
			rep, err := shard.Run(prog, sweep.Job{
				Workload: "synthetic",
				Scale:    largeScale,
				Selector: sel,
				Params:   core.DefaultParams(),
			})
			if err != nil {
				b.Fatal(err)
			}
			instrs += rep.TotalInstrs
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs*uint64(b.N)), "ns/instr")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(instrs*uint64(b.N)), "B/instr")
}

// BenchmarkVMInterpret measures raw interpreter throughput.
func BenchmarkVMInterpret(b *testing.B) {
	prog := workloads.MustGet("gcc").Build(100)
	m := vm.New(prog, vm.Config{})
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		st, err := m.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulator measures full-system simulation throughput (VM plus
// selector plus metrics) per selector.
func BenchmarkSimulator(b *testing.B) {
	for _, sel := range experiments.AllSelectors() {
		b.Run(sel, func(b *testing.B) {
			prog := workloads.MustGet("gcc").Build(100)
			var instrs uint64
			for i := 0; i < b.N; i++ {
				s, err := sweep.NewSelector(sel, core.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				res, err := dynopt.Run(prog, dynopt.Config{Selector: s})
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.VMStats.Instrs
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkHistoryBuffer measures the LEI history buffer's per-branch cost
// (the paper argues LEI's overhead is comparable to NET's: one buffer
// insert plus one hash lookup per taken branch).
func BenchmarkHistoryBuffer(b *testing.B) {
	buf := profile.NewHistoryBuffer(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := isa.Addr(i % 997)
		tgt := isa.Addr((i * 31) % 997)
		seq := buf.Insert(src, tgt, profile.KindInterp)
		if _, ok := buf.Lookup(tgt); !ok {
			buf.SetHash(tgt, seq)
		} else {
			buf.SetHash(tgt, seq)
		}
	}
}

// takenFunc adapts a function to vm.BlockSink, calling it for each taken
// branch of the block stream.
type takenFunc func(src, tgt isa.Addr, kind vm.BranchKind)

func (f takenFunc) BlockBatch(events []vm.BlockEvent) {
	for _, ev := range events {
		if ev.Taken {
			f(ev.Src, ev.Tgt, ev.Kind)
		}
	}
}

// BenchmarkLEITraceFormation measures FORM-TRACE cost on a realistic
// cyclic path.
func BenchmarkLEITraceFormation(b *testing.B) {
	prog := workloads.MustGet("mcf").Build(10)
	// Record one loop iteration's branches into a buffer by running the
	// program and keeping the last cycle at the hot header.
	type ev struct{ src, tgt isa.Addr }
	var events []ev
	if _, err := vm.Run(prog, vm.Config{}, takenFunc(func(src, tgt isa.Addr, k vm.BranchKind) {
		if len(events) < 4096 {
			events = append(events, ev{src, tgt})
		}
	})); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := profile.NewHistoryBuffer(500)
		cache := dynopt.NewSimulator(prog, dynopt.Config{Selector: core.NewNET(core.DefaultParams())}).Cache()
		var formed int
		for _, e := range events {
			seq := buf.Insert(e.src, e.tgt, profile.KindInterp)
			if old, ok := buf.Lookup(e.tgt); ok && e.tgt <= e.src {
				if _, ok2 := core.FormLEITrace(prog, cache, buf, e.tgt, old, core.DefaultParams()); ok2 {
					formed++
				}
				buf.TruncateAfter(old)
			}
			buf.SetHash(e.tgt, seq)
		}
		if formed == 0 {
			b.Fatal("no traces formed")
		}
	}
}

// BenchmarkLEI measures the end-to-end LEI selection path on a pooled
// scratch — the configuration the experiment harness runs — reporting
// normalized throughput and allocation pressure. With dense pre-sized
// tables the steady-state B/instr should be driven by per-run cache and
// report construction only.
func BenchmarkLEI(b *testing.B) {
	prog := workloads.MustGet("gcc").Build(100)
	scratch := &dynopt.Scratch{}
	var ms0, ms1 runtime.MemStats
	var instrs uint64
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dynopt.Run(prog, dynopt.Config{
			Selector: core.NewLEI(core.DefaultParams()),
			Scratch:  scratch,
		})
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.VMStats.Instrs
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(instrs), "B/instr")
}

// BenchmarkAdaptive measures the adaptive meta-selector end to end on the
// phased workload it was built for: detector accounting on every
// interpreted transfer and cache exit, plus the policy switches (with
// partition flushes) the phase regimes force. The delta against
// BenchmarkLEI bounds what phase detection costs on top of a static
// selector — pure integer accounting, zero steady-state allocation
// (pinned by TestAdaptiveSteadyStateAllocFree).
func BenchmarkAdaptive(b *testing.B) {
	prog := workloads.MustGet("phased").Build(60_000)
	scratch := &dynopt.Scratch{}
	var ms0, ms1 runtime.MemStats
	var instrs uint64
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dynopt.Run(prog, dynopt.Config{
			Selector: core.NewAdaptive(core.DefaultParams()),
			Scratch:  scratch,
		})
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.VMStats.Instrs
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(instrs), "B/instr")
}

// BenchmarkAnalyze measures the pooled metrics.Analyzer over a finished
// LEI run; after the first iteration warms the scratch tables, each call
// must be allocation-free (pinned by TestPooledAnalyzeAllocFree).
func BenchmarkAnalyze(b *testing.B) {
	prog := workloads.MustGet("gcc").Build(100)
	sel := core.NewLEI(core.DefaultParams())
	res, err := dynopt.Run(prog, dynopt.Config{Selector: sel})
	if err != nil {
		b.Fatal(err)
	}
	st := sel.Stats()
	var a metrics.Analyzer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Analyze(res.Cache, res.Collector, st)
	}
}

// BenchmarkWorkloadBuild measures program construction cost.
func BenchmarkWorkloadBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = workloads.MustGet("gcc").Build(10)
	}
}

// BenchmarkExtraFigures regenerates each of the thirteen extension studies
// (ExtraIDs: the T_prof, history-buffer and threshold sweeps, ablations,
// random corpus, bounded cache, optimizer, related work, persistent cache,
// loop coverage, i-cache, input sensitivity, and dynamic selection) at a
// reduced scale on a fresh sweep.Runner per iteration. Each study records
// every program it runs once and replays it for the study's other runs.
func BenchmarkExtraFigures(b *testing.B) {
	for _, id := range experiments.ExtraIDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.BuildExtra(sweep.NewRunner(), id, 60); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCombine measures the end-to-end trace-combination path —
// observed-trace recording and storage, region-CFG construction, and
// multipath promotion (Figure 13) — for both combining selectors on a pooled
// shard, the configuration the sweep engine runs. The micro sub-benchmarks
// run the full SPEC-named suite; the synthetic ones run the large seeded
// stress program. Normalized throughput and allocation pressure are recorded
// in BENCH_pipeline.json via scripts/bench.sh.
func BenchmarkCombine(b *testing.B) {
	const synthScale = 200_000
	type combineJob struct {
		prog *program.Program
		job  sweep.Job
	}
	suites := []struct {
		name string
		jobs []combineJob
	}{
		{name: "micro"},
		{name: "synthetic"},
	}
	for _, w := range workloads.SpecNames() {
		suites[0].jobs = append(suites[0].jobs, combineJob{
			prog: workloads.MustGet(w).Build(benchScale),
			job:  sweep.Job{Workload: w, Scale: benchScale},
		})
	}
	suites[1].jobs = append(suites[1].jobs, combineJob{
		prog: workloads.MustGet("synthetic").Build(synthScale),
		job:  sweep.Job{Workload: "synthetic", Scale: synthScale},
	})
	for _, sel := range []string{sweep.NETComb, sweep.LEIComb} {
		for _, suite := range suites {
			b.Run(sel+"/"+suite.name, func(b *testing.B) {
				shard := sweep.NewShard()
				var ms0, ms1 runtime.MemStats
				var instrs uint64
				runtime.ReadMemStats(&ms0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					instrs = 0
					for _, cj := range suite.jobs {
						job := cj.job
						job.Selector = sel
						job.Params = core.DefaultParams()
						rep, err := shard.Run(cj.prog, job)
						if err != nil {
							b.Fatal(err)
						}
						instrs += rep.TotalInstrs
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms1)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs*uint64(b.N)), "ns/instr")
				b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(instrs*uint64(b.N)), "B/instr")
			})
		}
	}
}

// BenchmarkSweepMemo measures the record-once/replay-many memo layer end to
// end on the grid shape it exists for — a threshold-search axis like
// ROADMAP direction 1's closed-loop optimizer sweeps: many parameter
// points over few cells, so every (workload, scale) recording is shared by
// selectors × points jobs. memo=rejected runs the grid under a one-byte
// corpus budget: the store rejects each cell's first recording, so every
// job interprets live — the live reference the sweep engine keeps for
// tests and CI; each cell's first job also pays the rejected recording, so
// it interprets the program twice. memo=on pays one interpretation per
// cell, with no simulator attached (a fresh Runner per iteration keeps
// that cost in the measurement), and replays every job from the in-memory
// corpus. Both run on shards warm from the process-wide pool, so neither
// pays for a fresh VM memory image per iteration. The jobs/s ratio between the two sub-benchmarks is the
// memoization speedup claimed in docs/PERFORMANCE.md — it grows with
// jobs-per-cell and with the live/replay cost ratio of the workload
// (interpretation-heavy cells like bzip2 and mcf replay ~4× cheaper;
// selector-bound cells save less, since replay still runs the full
// selector). Both numbers land in BENCH_pipeline.json via scripts/bench.sh
// and regress through scripts/benchgate.
//
// historycap=warm times the sweep engine's shared cells: the same two
// workloads × 8 HistoryCap values × the paper's four selectors and
// adaptive, replayed on one Runner whose memo a run before the timer
// filled. net and net+comb ignore HistoryCap, and the other three share
// a capacity inside an earlier run's history span, so the 80 cells run 10
// simulations and answer 70 from an earlier cell's report; it reports
// shared/op alongside jobs/s.
func BenchmarkSweepMemo(b *testing.B) {
	var cfgs []sweep.Config
	for _, th := range []int{4, 6, 8, 12, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160} {
		p := core.DefaultParams()
		p.NETThreshold = th
		p.LEIThreshold = th
		cfgs = append(cfgs, sweep.Config{Params: p})
	}
	grid := sweep.Grid{
		Workloads: []string{"bzip2", "mcf"},
		Scale:     benchScale,
		Selectors: []string{sweep.NET, sweep.LEI},
		Configs:   cfgs,
	}
	njobs := grid.NumJobs()
	for _, mode := range []struct {
		name   string
		budget int64
	}{{"rejected", 1}, {"on", 0}} {
		b.Run("memo="+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var sink sweep.CountingSink
				r := sweep.NewRunnerWithBudget(mode.budget)
				if err := r.RunGrid(context.Background(), grid, sweep.Options{Shards: 1}, &sink); err != nil {
					b.Fatal(err)
				}
				if sink.N != njobs {
					b.Fatalf("delivered %d of %d jobs", sink.N, njobs)
				}
			}
			b.ReportMetric(float64(njobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
	b.Run("historycap=warm", func(b *testing.B) {
		var cfgs []sweep.Config
		for _, h := range []int{50, 100, 200, 300, 500, 750, 1000, 2000} {
			p := core.DefaultParams()
			p.HistoryCap = h
			cfgs = append(cfgs, sweep.Config{Params: p})
		}
		grid := sweep.Grid{
			Workloads: []string{"bzip2", "mcf"},
			Scale:     benchScale,
			Selectors: append(sweep.PaperSelectors(), sweep.Adaptive),
			Configs:   cfgs,
		}
		njobs := grid.NumJobs()
		r := sweep.NewRunner()
		opts := sweep.Options{Shards: 1}
		if err := r.RunGrid(context.Background(), grid, opts, nil); err != nil {
			b.Fatal(err)
		}
		shared := r.Shared()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var sink sweep.CountingSink
			if err := r.RunGrid(context.Background(), grid, opts, &sink); err != nil {
				b.Fatal(err)
			}
			if sink.N != njobs {
				b.Fatalf("delivered %d of %d jobs", sink.N, njobs)
			}
		}
		b.ReportMetric(float64(njobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
		b.ReportMetric(float64(r.Shared()-shared)/float64(b.N), "shared/op")
	})
}

// BenchmarkReplay quantifies the record/replay decoupling
// (internal/tracestream) in the configuration the sweep engine runs — one
// pooled shard (scratch + Resettable selector) per job loop. "live" is the
// baseline full simulation (VM interpretation + LEI selection), "decode" is
// the raw stream-decode cost, and "replay" drives the same selection from
// the pre-decoded recording, built by tracestream.NewCorpus as the engine
// builds it so the replay borrows its edge table — dispatch, arithmetic,
// memory simulation and edge counting vanish, and repeated in-cache
// periods are advanced in one step, so its per-instruction cost must sit
// several× below live's. Live and replay also report ns/event over the
// recording's block-event count for direct comparison, and replay the share
// of events it skipped (skipped/event); the numbers land in
// BENCH_pipeline.json via scripts/bench.sh and regress through
// scripts/benchgate.
func BenchmarkReplay(b *testing.B) {
	const name = "bzip2"
	prog := workloads.MustGet(name).Build(benchScale)
	var buf bytes.Buffer
	h, err := tracestream.Record(prog, name, benchScale, vm.Config{}, &buf)
	if err != nil {
		b.Fatal(err)
	}
	recorded := buf.Bytes()
	job := sweep.Job{Workload: name, Scale: benchScale, Selector: sweep.LEI, Params: core.DefaultParams()}
	normalized := func(b *testing.B, instrs uint64) {
		b.Helper()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(h.Events*uint64(b.N)), "ns/event")
	}
	b.Run("live", func(b *testing.B) {
		shard := sweep.NewShard()
		if _, err := shard.Run(prog, job); err != nil { // warm the pools
			b.Fatal(err)
		}
		var instrs uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := shard.Run(prog, job)
			if err != nil {
				b.Fatal(err)
			}
			instrs += rep.TotalInstrs
		}
		normalized(b, instrs)
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(recorded)))
		for i := 0; i < b.N; i++ {
			if _, err := tracestream.DecodeBytes(recorded); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(h.Events*uint64(b.N)), "ns/event")
	})
	b.Run("replay", func(b *testing.B) {
		s, err := tracestream.DecodeBytes(recorded)
		if err != nil {
			b.Fatal(err)
		}
		corpus := tracestream.NewCorpus(s, prog) // with its edge table, as the engine builds it
		shard := sweep.NewShard()
		if _, err := shard.Replay(corpus, job); err != nil { // warm the pools
			b.Fatal(err)
		}
		var instrs uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := shard.Replay(corpus, job)
			if err != nil {
				b.Fatal(err)
			}
			instrs += rep.TotalInstrs
		}
		normalized(b, instrs)
		// The share of events the replay advanced in bulk (repeated
		// in-cache periods) is a property of the stream and the job, so
		// one untimed replay reads it.
		b.StopTimer()
		res, err := corpus.Replay(dynopt.Config{Selector: core.NewLEI(job.Params)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Collector.SkippedEvents)/float64(h.Events), "skipped/event")
	})
}
