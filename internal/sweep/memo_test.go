package sweep

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// memoTestGrid is the differential grid for the memo layer: every
// registered workload × all five selectors × a multi-point parameter axis,
// so each (workload, scale) cell is shared by many jobs.
func memoTestGrid(names []string) Grid {
	var cfgs []Config
	for _, th := range []int{8, 32, 64} {
		p := core.DefaultParams()
		p.LEIThreshold = th
		cfgs = append(cfgs, Config{Params: p})
	}
	return Grid{
		Workloads: names,
		Scale:     testScale,
		Selectors: append(PaperSelectors(), Adaptive),
		Configs:   cfgs,
	}
}

// memoJSON renders a report for comparison. JSON bytes, not
// reflect.DeepEqual: the serialized form is what sinks emit, and it
// distinguishes float artifacts (-0.0 vs 0.0) that == would hide.
func memoJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runMemoGrid executes g on a fresh runner and returns the collected
// results plus the runner's memo counters.
func runMemoGrid(t *testing.T, g Grid, opts Options) ([]Result, MemoStats) {
	t.Helper()
	r := NewRunner()
	var sink CollectSink
	if err := r.RunGrid(context.Background(), g, opts, &sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != g.NumJobs() {
		t.Fatalf("delivered %d results, want %d", len(sink.Results), g.NumJobs())
	}
	return sink.Results, r.MemoStats()
}

// cellBytes records the (name, testScale) cell as the memo layer does and
// returns what admitting its corpus charges the budget: the event arena
// plus the edge table.
func cellBytes(t *testing.T, name string) int64 {
	t.Helper()
	p := workloads.MustGet(name).Build(testScale)
	rec := tracestream.NewMemRecorder(p, name, testScale)
	st, err := vm.Run(p, vm.Config{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Corpus(st).SizeBytes()
}

// diffMemoRuns fails on the first report that differs between the two runs.
func diffMemoRuns(t *testing.T, off, on []Result) {
	t.Helper()
	for i := range off {
		if got, want := memoJSON(t, on[i].Report), memoJSON(t, off[i].Report); got != want {
			t.Fatalf("memoized report %d (%s under %s) diverges:\n got  %s\n want %s",
				i, off[i].Job.Workload, off[i].Job.Selector, got, want)
		}
	}
}

// TestSweepMemoMatchesOff is the memo layer's acceptance differential:
// across every registered workload under all five selectors on a 3-point
// parameter axis, a memoized sweep must be byte-identical to a live one,
// with the replay path doing the bulk of the work. The live reference is a
// one-byte budget: the store rejects each cell's first recording, and every
// job runs a live dynopt.Run.
func TestSweepMemoMatchesOff(t *testing.T) {
	g := memoTestGrid(workloads.Names())
	off, offStats := runMemoGrid(t, g, Options{Shards: 3, MemoBudgetBytes: 1})
	on, onStats := runMemoGrid(t, g, Options{Shards: 3})
	diffMemoRuns(t, off, on)

	if offStats.Rejected != uint64(len(g.Workloads)) || offStats.Hits != 0 || offStats.Resident != 0 {
		t.Errorf("one-byte-budget reference did not run live: %+v, want %d rejected, no hits, nothing resident",
			offStats, len(g.Workloads))
	}
	jobs := uint64(g.NumJobs())
	if onStats.Hits+onStats.Misses != jobs {
		t.Errorf("hits %d + misses %d != %d jobs", onStats.Hits, onStats.Misses, jobs)
	}
	if onStats.Hits == 0 {
		t.Error("memoized run never replayed")
	}
	if cells := uint64(len(g.Workloads)); onStats.Misses < cells {
		t.Errorf("misses %d below the %d distinct cells", onStats.Misses, cells)
	}
	if onStats.Resident != len(g.Workloads) {
		t.Errorf("%d corpora resident, want %d", onStats.Resident, len(g.Workloads))
	}
}

// TestSweepMemoConcurrentFirstTouch races many shards into one cold cell: a
// single workload with enough (selector, config) jobs that every shard's
// first pop hits the same unrecorded (workload, scale) key. Whoever wins
// the claim records; the rest must fall back to live execution and still
// produce byte-identical reports.
func TestSweepMemoConcurrentFirstTouch(t *testing.T) {
	var cfgs []Config
	for _, th := range []int{4, 8, 16, 32, 64, 128} {
		p := core.DefaultParams()
		p.NETThreshold = th
		cfgs = append(cfgs, Config{Params: p})
	}
	g := Grid{
		Workloads: []string{"gzip"},
		Scale:     testScale,
		Selectors: append(PaperSelectors(), Adaptive),
		Configs:   cfgs,
	}
	off, _ := runMemoGrid(t, g, Options{Shards: 1, MemoBudgetBytes: 1})
	on, stats := runMemoGrid(t, g, Options{Shards: 8, Window: 2})
	diffMemoRuns(t, off, on)
	if stats.Hits+stats.Misses != uint64(g.NumJobs()) {
		t.Errorf("hits %d + misses %d != %d jobs", stats.Hits, stats.Misses, g.NumJobs())
	}
}

// TestSweepMemoBudgetEvictionFallback squeezes the corpus budget until it
// misbehaves — first too small for the working set (forcing LRU eviction
// and re-recording), then too small for any corpus at all (forcing
// rejection and permanent live fallback) — and checks the output never
// changes, only the counters.
func TestSweepMemoBudgetEvictionFallback(t *testing.T) {
	g := memoTestGrid([]string{"gzip", "vpr"})
	gzip, vpr := cellBytes(t, "gzip"), cellBytes(t, "vpr")
	off, _ := runMemoGrid(t, g, Options{Shards: 1, MemoBudgetBytes: 1})
	_, full := runMemoGrid(t, g, Options{Shards: 1})
	if full.Resident != 2 || full.ResidentBytes != gzip+vpr {
		t.Fatalf("probe run: %d corpora / %d bytes resident, want both workloads / %d bytes",
			full.Resident, full.ResidentBytes, gzip+vpr)
	}

	// A budget one byte short of the working set holds either corpus but
	// never both: admitting the second evicts the first.
	on, st := runMemoGrid(t, g, Options{Shards: 1, MemoBudgetBytes: gzip + vpr - 1})
	diffMemoRuns(t, off, on)
	if st.Evictions == 0 {
		t.Errorf("under-working-set budget evicted nothing: %+v", st)
	}
	if st.Hits == 0 {
		t.Error("under-working-set budget never replayed")
	}

	// A budget one byte short of the smaller corpus rejects every corpus;
	// the cells go dead and every later job falls back to live execution.
	on, st = runMemoGrid(t, g, Options{Shards: 1, MemoBudgetBytes: min(gzip, vpr) - 1})
	diffMemoRuns(t, off, on)
	if st.Rejected != 2 {
		t.Errorf("Rejected = %d, want one per workload cell", st.Rejected)
	}
	if st.Hits != 0 || st.Resident != 0 {
		t.Errorf("one-byte budget still replayed: %+v", st)
	}
	if want := uint64(g.NumJobs() - 2); st.Fallbacks != want {
		t.Errorf("Fallbacks = %d, want %d (every job after each cell's rejected recording)", st.Fallbacks, want)
	}
}

// TestRunnerMemoPersistsAcrossRuns pins the property sweepd relies on: the
// corpus store lives with the Runner, so a second run over the same grid
// replays everything the first recorded — no new misses.
func TestRunnerMemoPersistsAcrossRuns(t *testing.T) {
	g := memoTestGrid([]string{"gzip"})
	r := NewRunner()
	run := func() MemoStats {
		t.Helper()
		if err := r.RunGrid(context.Background(), g, Options{Shards: 2}, &CollectSink{}); err != nil {
			t.Fatal(err)
		}
		return r.MemoStats()
	}
	// Both shards may first-touch the cold cell: one records it, and each
	// loser's live fallback counts as a miss too.
	first := run()
	if first.Misses != 1+first.Fallbacks {
		t.Errorf("first run: Misses = %d, want 1 recording + %d fallbacks", first.Misses, first.Fallbacks)
	}
	second := run()
	if d := second.Misses - first.Misses; d != 0 {
		t.Errorf("second run missed %d times, want 0 (fully replayed)", d)
	}
	if d, want := second.Hits-first.Hits, uint64(g.NumJobs()); d != want {
		t.Errorf("second run hit %d times, want %d", d, want)
	}
}

// writeTrace records the (name, testScale) cell to a stream file and
// returns its trace reference plus the resident size of its decoded
// corpus.
func writeTrace(t *testing.T, name string) (string, int64) {
	t.Helper()
	path := t.TempDir() + "/" + name + ".trace"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tracestream.Record(workloads.MustGet(name).Build(testScale), name, testScale, vm.Config{}, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	ref := tracestream.RefPrefix + path
	c, err := tracestream.NewStore(DefaultMemoBudgetBytes).LoadRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	return ref, c.SizeBytes()
}

// TestSweepTraceOverBudgetStreams pins the fallback for a trace file whose
// decoded corpus exceeds the whole budget: the claiming shard decodes it
// once, the store rejects it, and every later job streams the file from
// disk — with reports byte-identical to a run that keeps the corpus
// resident, and without holding the corpus per job.
func TestSweepTraceOverBudgetStreams(t *testing.T) {
	ref, size := writeTrace(t, "gzip")
	g := memoTestGrid([]string{ref})
	resident, st := runMemoGrid(t, g, Options{Shards: 2})
	if st.Resident != 1 || st.ResidentBytes != size {
		t.Fatalf("default budget: %+v, want the %d-byte corpus resident", st, size)
	}
	opts := Options{Shards: 1, MemoBudgetBytes: 1}
	r := NewRunner()
	var streamed CollectSink
	if err := r.RunGrid(context.Background(), g, opts, &streamed); err != nil {
		t.Fatal(err)
	}
	diffMemoRuns(t, resident, streamed.Results)
	st = r.MemoStats()
	if st.Rejected != 1 || st.ResidentBytes != 0 || st.Hits != 0 {
		t.Errorf("one-byte budget: %+v, want 1 rejected, nothing resident, no hits", st)
	}
	if want := uint64(g.NumJobs() - 1); st.Fallbacks != want {
		t.Errorf("Fallbacks = %d, want %d (every job after the rejected decode streams)", st.Fallbacks, want)
	}

	// The rejected key stays rejected, so this whole run streams.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	if err := r.RunGrid(context.Background(), g, opts, &CountingSink{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms1)
	perJob := int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(g.NumJobs())
	if perJob > size/10 {
		t.Errorf("streamed jobs allocated %d bytes each, want well below the %d-byte corpus", perJob, size)
	}
}

// TestSweepStoreSharedBudgetEvicts squeezes one budget between a trace
// corpus and a memo cell: it holds either but not both, so admitting one
// evicts the other, and the output never changes.
func TestSweepStoreSharedBudgetEvicts(t *testing.T) {
	ref, trace := writeTrace(t, "gzip")
	cell := cellBytes(t, "vpr")
	g := memoTestGrid([]string{ref, "vpr"})
	off, _ := runMemoGrid(t, g, Options{Shards: 1, MemoBudgetBytes: 1})
	on, st := runMemoGrid(t, g, Options{Shards: 1, MemoBudgetBytes: trace + cell - 1})
	diffMemoRuns(t, off, on)
	if st.Evictions == 0 || st.Rejected != 0 {
		t.Errorf("budget below trace + cell: %+v, want evictions and no rejection", st)
	}
	if st.Resident != 1 || st.ResidentBytes != cell {
		t.Errorf("%d corpora / %d bytes resident, want the last-admitted cell's %d", st.Resident, st.ResidentBytes, cell)
	}
}

// TestShardMemoAllocFree extends the engine's zero-alloc pin to the
// memoized dispatch: once a cell's corpus is recorded, a memoized job — the
// store lookup plus the shard replay — performs no heap allocations.
func TestShardMemoAllocFree(t *testing.T) {
	e := &engine{runner: NewRunner()}
	e.store = e.runner.ensureStore(0)
	shard := NewShard()
	run, err := e.runner.progs.get("gzip", testScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, selName := range PaperSelectors() { // adaptive pools separately
		selName := selName
		t.Run(selName, func(t *testing.T) {
			job := Job{Workload: "gzip", Scale: testScale, Selector: selName, Params: core.DefaultParams()}
			// First call records the cell; the second warms the pooled
			// selector for this shape.
			for i := 0; i < 2; i++ {
				if _, err := e.dispatch(shard, run, job); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := e.dispatch(shard, run, job); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state memoized job allocated %.1f times, want 0", allocs)
			}
		})
	}
}

// TestMemoKeysByProgramContent pins the memo key: cells are keyed by the
// content of the program they run, not by the (workload, scale) that built
// it. gzip at scale 0 and at its explicit default scale build
// byte-identical programs, so the second grid replays the first grid's
// recording instead of recording again.
func TestMemoKeysByProgramContent(t *testing.T) {
	r := NewRunner()
	for _, scale := range []int{0, workloads.MustGet("gzip").DefaultScale} {
		g := Grid{Workloads: []string{"gzip"}, Scale: scale, Selectors: []string{NET, LEI}}
		if err := r.RunGrid(context.Background(), g, Options{Shards: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.MemoStats(); st.Misses != 1 || st.Hits != 3 {
		t.Errorf("stats = %+v, want 1 miss (one recording) and 3 replays", st)
	}
}

// TestSimulateRejectsVMAndTap pins Simulate's contract: a cfg that sets VM
// bounds or a tap fails before anything runs or records, since a replay
// would ignore both; the same cfg without them runs.
func TestSimulateRejectsVMAndTap(t *testing.T) {
	r := NewRunner()
	p := workloads.MustGet("gzip").Build(testScale)
	for name, cfg := range map[string]dynopt.Config{
		"vm":  {VM: vm.Config{MaxInstrs: 1 << 20}},
		"tap": {Tap: tracestream.NewMemRecorder(p, "gzip", testScale)},
	} {
		cfg.Selector = core.NewNET(core.DefaultParams())
		if _, err := r.Simulate(p, cfg); err == nil {
			t.Errorf("%s: Simulate accepted the cfg", name)
		}
	}
	if st := r.MemoStats(); st.Misses != 0 || st.Hits != 0 {
		t.Errorf("rejected cfgs touched the store: %+v", st)
	}
	if _, err := r.Simulate(p, dynopt.Config{Selector: core.NewNET(core.DefaultParams())}); err != nil {
		t.Fatal(err)
	}
}
