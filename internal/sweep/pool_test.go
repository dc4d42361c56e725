package sweep

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/program"
	"repro/internal/workloads"
)

// jsonlGrid renders a grid's results on a fresh Runner as the jsonl sink
// would — one JSON report per line, in grid order.
func jsonlGrid(t *testing.T, g Grid, opts Options) string {
	t.Helper()
	var sink CollectSink
	if err := NewRunner().RunGrid(context.Background(), g, opts, &sink); err != nil {
		t.Error(err)
		return ""
	}
	var b strings.Builder
	for _, r := range sink.Results {
		b.WriteString(memoJSON(t, r.Report))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestConcurrentRunnersMatchSequential runs two Runners' grids at the same
// time, so their workers take shards from and return them to the shared
// idle list concurrently (check.sh runs it under -race), and requires each
// grid's output to be byte-identical to the same grid run alone.
func TestConcurrentRunnersMatchSequential(t *testing.T) {
	grids := []Grid{
		memoTestGrid([]string{"gzip", "mcf", "fig3-nested-loops"}),
		{Workloads: []string{"vpr", "gzip"}, Scale: testScale, Selectors: PaperSelectors(),
			Configs: []Config{{Params: core.DefaultParams(), CacheLimitBytes: 400}}},
	}
	opts := []Options{{Shards: 3}, {Shards: 2, MemoBudgetBytes: 1}}
	want := make([]string, len(grids))
	for i := range grids {
		want[i] = jsonlGrid(t, grids[i], opts[i])
	}
	got := make([]string, len(grids))
	var wg sync.WaitGroup
	for i := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = jsonlGrid(t, grids[i], opts[i])
		}()
	}
	wg.Wait()
	for i := range grids {
		if got[i] != want[i] {
			t.Errorf("grid %d run next to another Runner's differs from its run alone", i)
		}
	}
}

// TestFreshRunnerAllocatesOnlyCorpora pins the cold-cell cost on warm
// shards: after one warm-up grid, a fresh Runner's pass over the same grid
// — building its programs, recording each cell and replaying the rest —
// allocates no more than its corpora's resident bytes plus a fixed slack.
// A shard built afresh (8 MiB of VM data memory) or an arena regrown by
// append for every recording (about four times the events' bytes) exceeds
// it.
func TestFreshRunnerAllocatesOnlyCorpora(t *testing.T) {
	g := Grid{Workloads: []string{"bzip2", "mcf", "gzip"}, Scale: testScale, Selectors: PaperSelectors()}
	opts := Options{Shards: 1}
	if err := NewRunner().RunGrid(context.Background(), g, opts, nil); err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	if err := r.RunGrid(context.Background(), g, opts, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms1)
	st := r.MemoStats()
	if st.Resident != len(g.Workloads) {
		t.Fatalf("%d corpora resident, want %d", st.Resident, len(g.Workloads))
	}
	alloc := int64(ms1.TotalAlloc - ms0.TotalAlloc)
	t.Logf("allocated %d bytes for %d resident corpus bytes: slack %d", alloc, st.ResidentBytes, alloc-st.ResidentBytes)
	if slack := alloc - st.ResidentBytes; slack > freshRunnerSlackBytes {
		t.Errorf("fresh Runner allocated %d bytes, %d over its %d corpus bytes; want at most %d over",
			alloc, slack, st.ResidentBytes, freshRunnerSlackBytes)
	}
}

// freshRunnerSlackBytes bounds what a fresh Runner's pass in
// TestFreshRunnerAllocatesOnlyCorpora allocates beyond its corpora: the
// three built programs, the program cache, store and engine structures,
// and size-class rounding. The pass measured 38.7–44.9 KB.
const freshRunnerSlackBytes = 128 << 10

// TestRejectedRecordingDropsArena pins the arena's bound: when the store
// rejects a recording as larger than its whole budget, the recording shard
// drops its arena rather than keep bytes its Runner had no room for.
func TestRejectedRecordingDropsArena(t *testing.T) {
	g := Grid{Workloads: []string{"bzip2"}, Scale: testScale, Selectors: []string{NET, LEI}}
	arena := func() int64 {
		s := acquireShard()
		defer releaseShard(s)
		return s.rec.ArenaBytes()
	}
	if err := NewRunner().RunGrid(context.Background(), g, Options{Shards: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if arena() == 0 {
		t.Fatal("an admitted recording left the shard without an arena")
	}
	r := NewRunner()
	if err := r.RunGrid(context.Background(), g, Options{Shards: 1, MemoBudgetBytes: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if st := r.MemoStats(); st.Rejected != 1 {
		t.Fatalf("one-byte budget: %+v, want the recording rejected", st)
	}
	if n := arena(); n != 0 {
		t.Errorf("shard keeps a %d-byte arena after its recording was rejected", n)
	}
}

// simulateCase is one Runner.Simulate call of the pool tests.
type simulateCase struct {
	prog *program.Program
	sel  string
	cfg  dynopt.Config
}

// simulateCases runs gzip and mcf under every paper selector, unbounded and
// under a 400-byte cache bound, so the calls record both programs and replay
// them under each selector and bound.
func simulateCases() []simulateCase {
	var cases []simulateCase
	for _, w := range []string{"gzip", "mcf"} {
		p := workloads.MustGet(w).Build(testScale)
		for _, limit := range []int{0, 400} {
			for _, sel := range PaperSelectors() {
				cases = append(cases, simulateCase{p, sel, dynopt.Config{CacheLimitBytes: limit}})
			}
		}
	}
	return cases
}

// TestSimulateReplayAllocatesLittle pins that Simulate runs on a pooled
// shard: after warm-up, replaying calls reuse the shard's scratch, selectors
// and tables, so simulateReplays of them allocate under
// simulateReplaySlackBytes in all: far below the 8 MiB of VM memory a fresh
// dynopt.Scratch zeroes for a recording, and below the code cache,
// collector and analyzer tables it builds for a replay.
func TestSimulateReplayAllocatesLittle(t *testing.T) {
	r := NewRunner()
	cases := simulateCases()
	for _, c := range cases { // record both programs, warm every selector
		if _, err := r.Simulate(c.prog, c.sel, c.cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < simulateReplays; i++ {
		c := cases[i%len(cases)]
		if _, err := r.Simulate(c.prog, c.sel, c.cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms1)
	alloc := ms1.TotalAlloc - ms0.TotalAlloc
	t.Logf("%d replaying Simulate calls allocated %d bytes", simulateReplays, alloc)
	if st := r.MemoStats(); st.Misses != 2 || st.Hits != uint64(len(cases)+simulateReplays-2) {
		t.Fatalf("stats = %+v, want 2 recordings and every other call a replay", st)
	}
	if alloc > simulateReplaySlackBytes {
		t.Errorf("%d replaying Simulate calls allocated %d bytes, want at most %d",
			simulateReplays, alloc, simulateReplaySlackBytes)
	}
}

// simulateReplays is the number of measured calls in
// TestSimulateReplayAllocatesLittle, and simulateReplaySlackBytes their
// allocation bound. The calls measured 0–440 bytes in all, with and without
// -race; a fresh dynopt.Scratch per call makes them allocate about 320 KB.
const (
	simulateReplays          = 32
	simulateReplaySlackBytes = 16 << 10
)

// TestConcurrentSimulateMatchesSequential runs two goroutines' Simulate
// calls on one Runner at the same time, so they race for the same programs'
// recordings and take shards from the shared idle list concurrently
// (check.sh runs it under -race). Each read callback checks the result's
// Cache against its report, and each goroutine's reports must equal its
// calls run alone.
func TestConcurrentSimulateMatchesSequential(t *testing.T) {
	cases := simulateCases()
	run := func(r *Runner, reverse bool) ([]string, error) {
		out := make([]string, len(cases))
		for i := range cases {
			j := i
			if reverse {
				j = len(cases) - 1 - i
			}
			c := cases[j]
			rep, err := r.Simulate(c.prog, c.sel, c.cfg, func(res dynopt.Result) {
				if got := res.Cache.NumRegions(); got != res.Report.Regions {
					t.Errorf("%s: Cache holds %d regions, report says %d", c.sel, got, res.Report.Regions)
				}
			})
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(rep)
			if err != nil {
				return nil, err
			}
			out[j] = string(b)
		}
		return out, nil
	}
	want, err := run(NewRunner(), false)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	var got [2][]string
	var errs [2]error
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = run(r, g == 1)
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range want {
			if got[g][i] != want[i] {
				t.Errorf("goroutine %d, call %d (%s): report differs from the sequential run", g, i, cases[i].sel)
			}
		}
	}
}
