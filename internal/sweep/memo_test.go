package sweep

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/isa"
	"repro/internal/program"
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

// memoTestDistinct is the number of distinct cells in each workload's 15
// cells of memoTestGrid: net and net+comb ignore LEIThreshold, so each
// runs once for the three configs.
const memoTestDistinct = 11

// memoRun is a runner's memo counters and its count of shared jobs.
type memoRun struct {
	MemoStats
	Shared uint64
}

// runMemoGrid executes g on a fresh runner and returns the collected
// results plus the runner's memo counters and shared-job count.
func runMemoGrid(t *testing.T, g Grid, opts Options) ([]Result, memoRun) {
	t.Helper()
	r := NewRunner()
	var sink CollectSink
	if err := r.RunGrid(context.Background(), g, opts, &sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != g.NumJobs() {
		t.Fatalf("delivered %d results, want %d", len(sink.Results), g.NumJobs())
	}
	return sink.Results, memoRun{r.MemoStats(), r.Shared()}
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

	if offStats.Rejected != uint64(len(g.Workloads)) || offStats.Hits != 0 || offStats.Resident != 0 || offStats.Shared != 0 {
		t.Errorf("one-byte-budget reference did not run live: %+v, want %d rejected, no hits, nothing resident or shared",
			offStats, len(g.Workloads))
	}
	// Each workload's 15 cells fit one chunk, so every cell whose twin ran
	// before it in its chunk is shared.
	jobs := uint64(g.NumJobs())
	if distinct := uint64(len(g.Workloads) * memoTestDistinct); onStats.Hits+onStats.Misses != distinct || onStats.Shared != jobs-distinct {
		t.Errorf("hits %d + misses %d, shared %d; want %d distinct cells looked up and %d shared",
			onStats.Hits, onStats.Misses, onStats.Shared, distinct, jobs-distinct)
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
// single workload with enough (selector, config) cells to fill one chunk
// per shard, so every shard's first claim runs the same unrecorded
// (workload, scale) key. Whoever wins the claim records; the rest must fall
// back to live execution and still produce byte-identical reports.
func TestSweepMemoConcurrentFirstTouch(t *testing.T) {
	const shards = 8
	sels := append(PaperSelectors(), Adaptive)
	var cfgs []Config
	for i := 0; i < shards*maxChunk/len(sels); i++ {
		p := core.DefaultParams()
		p.NETThreshold = 4 + i
		cfgs = append(cfgs, Config{Params: p})
	}
	g := Grid{
		Workloads: []string{"gzip"},
		Scale:     testScale,
		Selectors: sels,
		Configs:   cfgs,
	}
	if n := g.NumJobs(); n <= (shards-1)*maxChunk {
		t.Fatalf("%d cells fill fewer than %d chunks", n, shards)
	}
	off, _ := runMemoGrid(t, g, Options{Shards: 1, MemoBudgetBytes: 1})
	on, stats := runMemoGrid(t, g, Options{Shards: shards})
	diffMemoRuns(t, off, on)
	// lei and lei+comb ignore NETThreshold, so a shard shares their cells
	// within its chunk once the corpus is resident; every other job looks
	// the store up once.
	if stats.Hits+stats.Misses+stats.Shared != uint64(g.NumJobs()) {
		t.Errorf("hits %d + misses %d + shared %d != %d jobs", stats.Hits, stats.Misses, stats.Shared, g.NumJobs())
	}
	t.Logf("%d of %d jobs fell back to live while the cell was recording", stats.Fallbacks, g.NumJobs())
	if stats.Misses != 1+stats.Fallbacks {
		t.Errorf("Misses = %d, want 1 recording + %d fallbacks", stats.Misses, stats.Fallbacks)
	}
}

// TestSweepChunksAlignToWorkloads pins the engine's unit of work: each
// workload's cells fit one chunk, so one shard runs all of them and records
// its program once, however the shards interleave — no shard ever
// first-touches a workload another shard is recording.
func TestSweepChunksAlignToWorkloads(t *testing.T) {
	g := memoTestGrid([]string{"gzip", "vpr", "mcf", "bzip2"})
	if per := g.NumJobs() / len(g.Workloads); per > maxChunk {
		t.Fatalf("%d cells per workload exceed one %d-cell chunk", per, maxChunk)
	}
	_, st := runMemoGrid(t, g, Options{Shards: 3})
	n := uint64(len(g.Workloads) * memoTestDistinct)
	if st.Misses != 4 || st.Fallbacks != 0 || st.Hits != n-4 || st.Shared != uint64(g.NumJobs())-n {
		t.Errorf("stats = %+v, want 4 misses (one recording per workload), no fallbacks, %d hits, %d shared",
			st, n-4, uint64(g.NumJobs())-n)
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
	// A shard that first-touches the cold cell while another records it
	// falls back to live, and that fallback counts as a miss too.
	first := run()
	shared := r.Shared()
	if first.Misses != 1+first.Fallbacks {
		t.Errorf("first run: Misses = %d, want 1 recording + %d fallbacks", first.Misses, first.Fallbacks)
	}
	second := run()
	if d := second.Misses - first.Misses; d != 0 {
		t.Errorf("second run missed %d times, want 0 (fully replayed)", d)
	}
	// The 15 cells run in two chunks, [0,8) and [8,15): net and net+comb
	// at config 1 share config 0's reports in the first, and nothing
	// shares in the second, whose net and net+comb cells lead it.
	if d, want := second.Hits-first.Hits, uint64(g.NumJobs()-2); d != want {
		t.Errorf("second run hit %d times, want %d", d, want)
	}
	if d := r.Shared() - shared; d != 2 {
		t.Errorf("second run shared %d jobs, want 2", d)
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
	st = memoRun{r.MemoStats(), r.Shared()}
	if st.Rejected != 1 || st.ResidentBytes != 0 || st.Hits != 0 || st.Shared != 0 {
		t.Errorf("one-byte budget: %+v, want 1 rejected, nothing resident, no hits, nothing shared", st)
	}
	if want := uint64(g.NumJobs() - 1); st.Fallbacks != want {
		t.Errorf("Fallbacks = %d, want %d (every job after the rejected decode streams)", st.Fallbacks, want)
	}

	// The rejected key stays rejected, so these whole runs stream. TotalAlloc
	// counts the process's background allocation too, which only adds, so
	// the smallest per-job figure of three runs is the one read.
	perJob := int64(math.MaxInt64)
	for run := 0; run < 3; run++ {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		if err := r.RunGrid(context.Background(), g, opts, &CountingSink{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms1)
		perJob = min(perJob, int64(ms1.TotalAlloc-ms0.TotalAlloc)/int64(g.NumJobs()))
	}
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

// TestSimulateRejectsVMAndTap pins Simulate's contract: a cfg that sets a
// selector, VM bounds or a scratch fails before anything runs or records,
// since the shard supplies the selector and scratch and a replay would
// ignore the VM bounds; the same cfg without them runs.
func TestSimulateRejectsVMAndTap(t *testing.T) {
	r := NewRunner()
	p := workloads.MustGet("gzip").Build(testScale)
	for name, cfg := range map[string]dynopt.Config{
		"selector": {Selector: core.NewNET(core.DefaultParams())},
		"vm":       {VM: vm.Config{MaxInstrs: 1 << 20}},
		"scratch":  {Scratch: new(dynopt.Scratch)},
	} {
		if _, err := r.Simulate(p, NET, cfg, nil); err == nil {
			t.Errorf("%s: Simulate accepted the cfg", name)
		}
	}
	if st := r.MemoStats(); st.Misses != 0 || st.Hits != 0 {
		t.Errorf("rejected cfgs touched the store: %+v", st)
	}
	if _, err := r.Simulate(p, NET, dynopt.Config{}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCellVMErrorAbandonsClaim pins the recording step's failure path: a
// cell whose program fails in the VM returns dynopt.Run's exact error text,
// abandons its claim, so the next job of the cell claims and records again
// instead of falling back, and leaves nothing resident.
func TestCellVMErrorAbandonsClaim(t *testing.T) {
	p, err := program.New([]isa.Instr{{Op: isa.Ret}, {Op: isa.Halt}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, want := dynopt.Run(p, dynopt.Config{Selector: core.NewNET(core.DefaultParams())})
	if want == nil {
		t.Fatal("the program ran without a VM error")
	}
	e := &engine{runner: NewRunner()}
	e.store = e.runner.ensureStore(0)
	shard := NewShard()
	run := runnable{prog: p, key: tracestream.Key{Digest: p.Digest()}}
	job := Job{Workload: "ret", Selector: NET, Params: core.DefaultParams()}
	for i := 0; i < 2; i++ {
		if _, err := e.dispatch(shard, run, job); err == nil || err.Error() != want.Error() {
			t.Fatalf("job %d: err = %v, want %q", i, err, want)
		}
	}
	if st := e.store.Stats(); st.Misses != 2 || st.Fallbacks != 0 || st.Resident != 0 {
		t.Errorf("stats = %+v, want 2 claimed misses, no fallback, nothing resident", st)
	}
}

// TestRejectedCellRunsLive pins what a rejected recording leaves its job: a
// live run, not a replay of the corpus the store refused. Under a one-byte
// budget (refused before the seal) and under a budget of exactly its
// events' bytes (the sealed corpus, with its edge table, refused by Admit)
// eon's NET run skips no repeated period (only a replay can), while under
// the default budget its replay skips some; all report the same.
func TestRejectedCellRunsLive(t *testing.T) {
	p := workloads.MustGet("eon").Build(testScale)
	skipped := func(budget int64) (uint64, string) {
		r := NewRunner()
		r.ensureStore(budget)
		var n uint64
		rep, err := r.Simulate(p, NET, dynopt.Config{}, func(res dynopt.Result) { n = res.Collector.SkippedEvents })
		if err != nil {
			t.Fatal(err)
		}
		return n, memoJSON(t, rep)
	}
	rec := tracestream.NewMemRecorder(p, "", 0)
	if _, err := vm.Run(p, vm.Config{}, rec); err != nil {
		t.Fatal(err)
	}
	replayed, replayRep := skipped(0)
	if replayed == 0 {
		t.Errorf("skipped events: %d replayed, want > 0", replayed)
	}
	for _, budget := range []int64{1, rec.EventBytes()} {
		live, liveRep := skipped(budget)
		if live != 0 {
			t.Errorf("budget %d: %d skipped events, want 0 (a live run)", budget, live)
		}
		if liveRep != replayRep {
			t.Errorf("budget %d: rejected cell reports\n%s\nreplayed cell\n%s", budget, liveRep, replayRep)
		}
	}
}
