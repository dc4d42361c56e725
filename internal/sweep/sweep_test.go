package sweep

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/metrics"
	"repro/internal/vm"
	"repro/internal/workloads"
)

const testScale = 60

// directRun executes one job the pre-sweep way: fresh selector, fresh
// simulator state, no pooling. Sweep results must be identical to this.
func directRun(t *testing.T, job Job) metrics.Report {
	t.Helper()
	sel, err := NewSelector(job.Selector, job.Params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dynopt.Run(workloads.MustGet(job.Workload).Build(job.Scale), dynopt.Config{
		Selector:        sel,
		VM:              vm.Config{},
		CacheLimitBytes: job.CacheLimitBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Report.Workload = job.Workload
	return res.Report
}

func testGrid() Grid {
	return Grid{
		Workloads: workloads.SpecNames(),
		Scale:     testScale,
		Selectors: PaperSelectors(),
		Configs:   []Config{{Params: core.DefaultParams()}},
	}
}

// TestSweepOrderedAndIdentical runs the full 12×4 grid sharded and checks
// that results arrive exactly once each, in grid-enumeration order, and
// that every pooled-shard report is identical to a direct run on a fresh
// Scratch.
func TestSweepOrderedAndIdentical(t *testing.T) {
	g := testGrid()
	jobs := g.Jobs()
	var sink CollectSink
	if err := RunGrid(context.Background(), g, Options{Shards: 4}, &sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != len(jobs) {
		t.Fatalf("delivered %d results, want %d", len(sink.Results), len(jobs))
	}
	for i, r := range sink.Results {
		if r.Index != i {
			t.Fatalf("result %d has index %d: delivery out of order", i, r.Index)
		}
		if r.Job != jobs[i] {
			t.Fatalf("result %d carries job %+v, want %+v", i, r.Job, jobs[i])
		}
	}
	// Spot-check pooled-vs-fresh identity on a deterministic sample: every
	// selector, several workloads (the full cross product would re-run the
	// grid twice).
	for i := 0; i < len(jobs); i += 7 {
		want := directRun(t, jobs[i])
		if sink.Results[i].Report != want {
			t.Errorf("%s under %s: pooled sweep report differs from direct run\n sweep: %+v\ndirect: %+v",
				jobs[i].Workload, jobs[i].Selector, sink.Results[i].Report, want)
		}
	}
}

// TestShardReuseAcrossParams re-runs the same shard across alternating
// parameter points and cache bounds, checking each pooled run against a
// fresh one: this is the selector Reset / cache Reset correctness guard
// under eviction-heavy bounded configurations too.
func TestShardReuseAcrossParams(t *testing.T) {
	small := core.DefaultParams()
	small.NETThreshold = 10
	small.LEIThreshold = 8
	small.HistoryCap = 64
	configs := []Config{
		{Params: core.DefaultParams()},
		{Params: small},
		{Params: core.DefaultParams(), CacheLimitBytes: 400},
		{Params: small, CacheLimitBytes: 400},
	}
	shard := NewShard()
	for _, wl := range []string{"fig3-nested-loops", "gcc", "perlbmk"} {
		p := workloads.MustGet(wl).Build(testScale)
		for round := 0; round < 2; round++ {
			for _, sel := range PaperSelectors() {
				for _, c := range configs {
					job := Job{Workload: wl, Scale: testScale, Selector: sel, Params: c.Params, CacheLimitBytes: c.CacheLimitBytes}
					got, err := shard.Run(p, job)
					if err != nil {
						t.Fatal(err)
					}
					want := directRun(t, job)
					if got != want {
						t.Fatalf("%s under %s (limit %d, round %d): pooled report differs\npooled: %+v\n fresh: %+v",
							wl, sel, c.CacheLimitBytes, round, got, want)
					}
				}
			}
		}
	}
}

// TestSweepFailFast checks that a broken cell stops the grid: the error is
// reported and delivery is a clean prefix of the enumeration (no result
// after the failure is delivered out of order).
func TestSweepFailFast(t *testing.T) {
	g := testGrid()
	g.Workloads = append([]string{g.Workloads[0], "no-such-workload"}, g.Workloads[1:]...)
	jobs := g.Jobs()
	var sink CollectSink
	err := RunGrid(context.Background(), g, Options{Shards: 4}, &sink)
	if err == nil {
		t.Fatal("sweep with a broken cell reported no error")
	}
	if len(sink.Results) >= len(jobs) {
		t.Fatalf("all %d results delivered despite fail-fast", len(sink.Results))
	}
	for i, r := range sink.Results {
		if r.Index != i {
			t.Fatalf("result %d has index %d after failure", i, r.Index)
		}
	}
}

// TestSweepCancellation cancels the context from inside the sink and checks
// the engine stops early and reports the cancellation.
func TestSweepCancellation(t *testing.T) {
	g := testGrid()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	err := RunGrid(ctx, g, Options{Shards: 4}, FuncSink(func(r Result) {
		delivered++
		if delivered == 3 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if delivered >= g.NumJobs() {
		t.Fatalf("all %d results delivered despite cancellation", delivered)
	}
}

// TestSweepSingleShard pins the shards=1 degenerate case (the benchmark
// baseline) to the same output as the sharded run.
func TestSweepSingleShard(t *testing.T) {
	g := Grid{
		Workloads: []string{"gzip", "vpr"},
		Scale:     testScale,
		Selectors: PaperSelectors(),
	}
	var one, many CollectSink
	if err := RunGrid(context.Background(), g, Options{Shards: 1}, &one); err != nil {
		t.Fatal(err)
	}
	if err := RunGrid(context.Background(), g, Options{Shards: 8}, &many); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Results, many.Results) {
		t.Fatal("sharded sweep output differs from single-shard output")
	}
}

// TestSyntheticReportDeterministic checks the synthetic stress generator end
// to end: two independently built programs from the same seed must produce
// identical metrics.Report values under all four paper selectors.
func TestSyntheticReportDeterministic(t *testing.T) {
	const size = 60_000
	a := workloads.Synthetic(7, size)
	b := workloads.Synthetic(7, size)
	for _, sel := range PaperSelectors() {
		job := Job{Workload: "synthetic", Selector: sel, Params: core.DefaultParams()}
		shard := NewShard()
		ra, err := shard.Run(a, job)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := shard.Run(b, job)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Errorf("%s: same-seed synthetic programs produced different reports\n a: %+v\n b: %+v", sel, ra, rb)
		}
	}
}

// TestGridEnumerationOrder pins the deterministic job order: workload-major,
// then config, then selector.
func TestGridEnumerationOrder(t *testing.T) {
	g := Grid{
		Workloads: []string{"a", "b"},
		Selectors: []string{"s1", "s2"},
		Configs:   []Config{{CacheLimitBytes: 1}, {CacheLimitBytes: 2}},
	}
	jobs := g.Jobs()
	want := []struct {
		w string
		l int
		s string
	}{
		{"a", 1, "s1"}, {"a", 1, "s2"}, {"a", 2, "s1"}, {"a", 2, "s2"},
		{"b", 1, "s1"}, {"b", 1, "s2"}, {"b", 2, "s1"}, {"b", 2, "s2"},
	}
	if len(jobs) != len(want) {
		t.Fatalf("%d jobs, want %d", len(jobs), len(want))
	}
	for i, w := range want {
		j := jobs[i]
		if j.Workload != w.w || j.CacheLimitBytes != w.l || j.Selector != w.s {
			t.Fatalf("job %d = %+v, want %+v", i, j, w)
		}
	}
}

// TestJobAtMatchesJobs pins the on-demand enumeration against the
// materialized one, including the empty-Configs default and a degenerate
// axis.
func TestJobAtMatchesJobs(t *testing.T) {
	grids := []Grid{
		testGrid(),
		{Workloads: []string{"a", "b", "c"}, Selectors: []string{"s1", "s2"},
			Configs: []Config{{CacheLimitBytes: 1}, {CacheLimitBytes: 2}, {CacheLimitBytes: 3}}},
		{Workloads: []string{"a"}, Selectors: []string{"s1"}},
		{Workloads: []string{"a", "b"}, Scale: 7, Selectors: []string{"s1", "s2", "s3"}},
		{},
	}
	for gi, g := range grids {
		jobs := g.Jobs()
		if len(jobs) != g.NumJobs() {
			t.Fatalf("grid %d: NumJobs = %d, Jobs materializes %d", gi, g.NumJobs(), len(jobs))
		}
		for i, want := range jobs {
			if got := g.JobAt(i); got != want {
				t.Fatalf("grid %d: JobAt(%d) = %+v, want %+v", gi, i, got, want)
			}
		}
	}
}

// TestSweepChunkSizing pins how a run cuts its range: whole workloads when
// the range holds one per shard, smaller chunks when it does not, so a
// range inside one workload (a sweepd worker's usual slice) still runs on
// every shard.
func TestSweepChunkSizing(t *testing.T) {
	g := testGrid() // 12 workloads × 4 cells
	for _, tc := range []struct {
		lo, hi, shards    int
		chunk, runsShards int
	}{
		{0, 48, 4, 4, 4},   // whole workloads
		{0, 48, 16, 3, 16}, // fewer workloads than shards
		{5, 8, 2, 2, 2},    // inside one workload
		{5, 6, 3, 1, 1},    // one cell
		{2, 7, 2, 3, 2},    // straddles two workloads
	} {
		e := NewRunner().newEngine(context.Background(), g, tc.lo, tc.hi, Options{Shards: tc.shards}, nil)
		e.cancel()
		if e.chunk != tc.chunk || e.shards != tc.runsShards {
			t.Errorf("[%d,%d) at %d shards: chunk %d on %d shards, want chunk %d on %d",
				tc.lo, tc.hi, tc.shards, e.chunk, e.shards, tc.chunk, tc.runsShards)
		}
	}
}

// TestSweepWorkerBlocksMidChunk forces the engine's backpressure: the job
// at the delivery frontier is held back, so the other shard runs ahead
// until the shards × chunk window stops it in the middle of a chunk.
// Released, the run delivers every result in order; cancelled while the
// frontier is still held, the blocked shard wakes and the run returns.
func TestSweepWorkerBlocksMidChunk(t *testing.T) {
	g := Grid{
		Workloads: []string{"gzip", "vpr", "mcf", "bzip2"},
		Scale:     testScale,
		Selectors: PaperSelectors(),
		Configs:   []Config{{Params: core.DefaultParams()}, {Params: core.DefaultParams(), CacheLimitBytes: 400}},
	}
	// Chunks are the 8-cell workloads, the first clipped to [4,8), and the
	// window is 16 jobs: the free shard runs [8,16) and [16,20), then
	// blocks delivering job 20, halfway through its chunk.
	const lo, hi, stop = 4, 32, 20
	for _, release := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var got []int
		e := NewRunner().newEngine(ctx, g, lo, hi, Options{Shards: 2}, FuncSink(func(r Result) {
			got = append(got, r.Index)
		}))
		if e.chunk != 8 || e.shards != 2 {
			t.Fatalf("chunk %d on %d shards, want 8 on 2", e.chunk, e.shards)
		}
		hold, blocked := make(chan struct{}), make(chan struct{})
		var passed atomic.Bool
		done := make(chan error, 1)
		go func() {
			done <- e.drive(ctx, func(i int, _ *Shard) {
				switch i {
				case lo:
					<-hold
				case stop:
					close(blocked)
					defer passed.Store(true)
				}
				e.del.Deliver(Result{Index: i})
			})
		}()
		<-blocked
		time.Sleep(20 * time.Millisecond)
		if passed.Load() {
			t.Fatalf("job %d delivered while job %d was held", stop, lo)
		}
		if !release {
			// The held frontier job delivers nothing, so only the cancel
			// can wake the blocked shard.
			cancel()
			for deadline := time.Now().Add(10 * time.Second); !passed.Load(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("cancel left job %d blocked", stop)
				}
			}
		}
		close(hold)
		err := <-done
		if !passed.Load() {
			t.Fatalf("run returned with job %d still blocked", stop)
		}
		if release {
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != hi-lo {
				t.Fatalf("delivered %d results, want %d", len(got), hi-lo)
			}
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
		}
		for k, i := range got {
			if i != lo+k {
				t.Fatalf("result %d has index %d, want %d", k, i, lo+k)
			}
		}
	}
}

// TestRunnerRunRange checks that executing a grid as disjoint ranges on one
// persistent Runner reproduces the full-grid run byte for byte: global
// indices, jobs, and pooled-state reports all identical. The cuts start and
// end inside workloads and inside chunks, and the wide grid's workloads
// span several chunks each.
func TestRunnerRunRange(t *testing.T) {
	var wide []Config
	for i := 0; i < 40; i++ {
		p := core.DefaultParams()
		p.LEIThreshold = 8 + i
		wide = append(wide, Config{Params: p})
	}
	for _, tc := range []struct {
		name string
		g    Grid
		cuts []int
	}{
		{"narrow", Grid{
			Workloads: []string{"gzip", "vpr", "mcf"},
			Scale:     testScale,
			Selectors: PaperSelectors(),
			Configs:   []Config{{Params: core.DefaultParams()}, {Params: core.DefaultParams(), CacheLimitBytes: 400}},
		}, []int{0, 5, 6, 13}},
		{"wide", Grid{
			Workloads: []string{"gzip", "vpr"},
			Scale:     testScale,
			Selectors: PaperSelectors(),
			Configs:   wide,
		}, []int{0, 3, 64, 100, 130, 200, 300}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			n := g.NumJobs()
			var full CollectSink
			if err := RunGrid(context.Background(), g, Options{Shards: 2}, &full); err != nil {
				t.Fatal(err)
			}
			r := NewRunner()
			var merged []Result
			cuts := append(tc.cuts, n)
			for i := 1; i < len(cuts); i++ {
				var part CollectSink
				if err := r.RunRange(context.Background(), g, cuts[i-1], cuts[i], Options{Shards: 3}, &part); err != nil {
					t.Fatal(err)
				}
				merged = append(merged, part.Results...)
			}
			if memoJSON(t, merged) != memoJSON(t, full.Results) {
				t.Fatalf("ranged runs differ from full-grid run:\nranged: %d results\n  full: %d results", len(merged), len(full.Results))
			}
			if err := r.RunRange(context.Background(), g, 0, n+1, Options{}, nil); err == nil {
				t.Fatal("RunRange beyond the grid reported no error")
			}
		})
	}
}

// TestShardSteadyStateAllocFree pins the zero-alloc claim: after one warm-up
// run per shape, a shard's job loop — pooled interpreter, simulator,
// collector, analyzer, code cache, and Resettable selector — performs zero
// heap allocations per run for every paper selector, the combining ones
// included (arena-backed observed traces, pooled RegionCFG), including under
// an eviction-heavy bounded cache (region free-list).
func TestShardSteadyStateAllocFree(t *testing.T) {
	shard := NewShard()
	for _, tc := range []struct {
		name string
		job  Job
	}{
		{"net", Job{Workload: "fig3-nested-loops", Scale: 40, Selector: NET, Params: core.DefaultParams()}},
		{"lei", Job{Workload: "fig3-nested-loops", Scale: 40, Selector: LEI, Params: core.DefaultParams()}},
		{"net+comb", Job{Workload: "fig3-nested-loops", Scale: 40, Selector: NETComb, Params: core.DefaultParams()}},
		{"lei+comb", Job{Workload: "fig3-nested-loops", Scale: 40, Selector: LEIComb, Params: core.DefaultParams()}},
		{"net-bounded", Job{Workload: "gzip", Scale: 40, Selector: NET, Params: core.DefaultParams(), CacheLimitBytes: 300}},
		{"lei-bounded", Job{Workload: "gzip", Scale: 40, Selector: LEI, Params: core.DefaultParams(), CacheLimitBytes: 300}},
		{"net+comb-bounded", Job{Workload: "gzip", Scale: 40, Selector: NETComb, Params: core.DefaultParams(), CacheLimitBytes: 300}},
		{"lei+comb-bounded", Job{Workload: "gzip", Scale: 40, Selector: LEIComb, Params: core.DefaultParams(), CacheLimitBytes: 300}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := workloads.MustGet(tc.job.Workload).Build(tc.job.Scale)
			for i := 0; i < 2; i++ { // warm up pools and dense tables
				if _, err := shard.Run(p, tc.job); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := shard.Run(p, tc.job); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state shard run allocated %.1f times, want 0", allocs)
			}
		})
	}
}
