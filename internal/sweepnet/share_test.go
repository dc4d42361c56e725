package sweepnet

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// TestRangeSizeAlignsToWorkloads pins the default range cut: whole
// workloads near njobs / (8 × workers) jobs, unless a workload is too large
// or too few ranges would be left to keep every worker's pipeline full.
func TestRangeSizeAlignsToWorkloads(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		njobs, perWorkload, workers int
		want                        int
	}{
		{"remote-warm grid: 30 rounds up to one workload", 480, 40, 2, 40},
		{"paper grid", 48, 4, 2, 4},
		{"two workloads per range", 960, 40, 1, 120},
		{"one workload would leave one range", 64, 64, 2, 4},
		{"too few ranges for the pipeline", 120, 40, 2, 7},
		{"workload over 512 cells", 10000, 1000, 2, 512},
		{"tiny grid", 3, 3, 4, 1},
	} {
		if got := rangeSize(tc.njobs, tc.perWorkload, tc.workers); got != tc.want {
			t.Errorf("%s: rangeSize(%d, %d, %d) = %d, want %d",
				tc.name, tc.njobs, tc.perWorkload, tc.workers, got, tc.want)
		}
	}
}

// workerRunners starts n loopback workers, each serving its own Runner
// with one shard, and returns their addresses, runners and a stop function.
func workerRunners(t *testing.T, n int) ([]string, []*sweep.Runner, func()) {
	t.Helper()
	var addrs []string
	var runners []*sweep.Runner
	var stops []func()
	for i := 0; i < n; i++ {
		r := sweep.NewRunner()
		addr, stop := startWorker(t, ServerOptions{Shards: 1, Runner: r})
		addrs = append(addrs, addr)
		runners = append(runners, r)
		stops = append(stops, stop)
	}
	return addrs, runners, func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// TestSharedCellsCountRemote pins the counts of a remote-warm-shaped grid:
// the twelve SPEC workloads × two HistoryCap values × every paper selector
// and adaptive. net and net+comb ignore HistoryCap, and lei, lei+comb and
// adaptive share where the span of their run at 100 holds 500, so 64 of the
// 120 cells simulate (it was 96 when only the selectors that ignore
// HistoryCap shared). Run locally, the simulations are exactly the store's
// lookups and the rest are shared, and the reports match the one-byte-budget
// live run, which shares nothing; run on two loopback workers, whose ranges
// are whole workloads, the two workers' counts add up to the same.
func TestSharedCellsCountRemote(t *testing.T) {
	var cfgs []sweep.Config
	for _, h := range []int{100, 500} {
		p := core.DefaultParams()
		p.HistoryCap = h
		cfgs = append(cfgs, sweep.Config{Params: p})
	}
	g := sweep.Grid{
		Workloads: workloads.SpecNames(),
		Scale:     5,
		Selectors: experiments.AllSelectors(),
		Configs:   cfgs,
	}
	const distinct, shared = 64, 56

	local := sweep.NewRunner()
	var want sweep.CollectSink
	if err := local.RunGrid(context.Background(), g, sweep.Options{Shards: 2}, &want); err != nil {
		t.Fatal(err)
	}
	st := local.MemoStats()
	if n := st.Hits + st.Misses + st.Fallbacks; n != distinct || local.Shared() != shared {
		t.Errorf("local: %v shared=%d; want hits+misses+fallbacks = %d and shared=%d",
			st, local.Shared(), distinct, shared)
	}
	var live sweep.CollectSink
	if err := sweep.NewRunnerWithBudget(1).RunGrid(context.Background(), g, sweep.Options{Shards: 2}, &live); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.Results, want.Results) {
		t.Error("local results differ from the live run")
	}

	addrs, runners, stop := workerRunners(t, 2)
	defer stop()
	var got sweep.CollectSink
	if err := RunGrid(context.Background(), addrs, g, Options{}, &got); err != nil {
		t.Fatal(err)
	}
	var lookups, sharedSum uint64
	for i, r := range runners {
		st := r.MemoStats()
		t.Logf("worker %d: %v shared=%d", i, st, r.Shared())
		lookups += st.Hits + st.Misses + st.Fallbacks
		sharedSum += r.Shared()
	}
	if lookups != distinct || sharedSum != shared {
		t.Errorf("remote: hits+misses+fallbacks = %d and shared=%d over both workers; want %d and %d",
			lookups, sharedSum, distinct, shared)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Error("remote results differ from local")
	}
}

// TestOneWorkloadGridUsesBothWorkers pins the fallback of the range cut: a
// grid of one workload's 64 configs cannot be cut on workload boundaries
// without leaving one worker idle, so its ranges split the workload and
// both workers run some.
func TestOneWorkloadGridUsesBothWorkers(t *testing.T) {
	var cfgs []sweep.Config
	for i := 0; i < 64; i++ {
		p := core.DefaultParams()
		p.NETThreshold = 4 + i
		cfgs = append(cfgs, sweep.Config{Params: p})
	}
	g := sweep.Grid{Workloads: []string{"gzip"}, Scale: 100, Selectors: []string{sweep.NET}, Configs: cfgs}
	addrs, runners, stop := workerRunners(t, 2)
	defer stop()
	// Hold every connection's second range until each worker has its
	// first, so neither can run the whole grid before the other connects.
	var first sync.WaitGroup
	first.Add(len(addrs))
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return &rangeGate{Conn: conn, first: &first}, nil
	}
	var got sweep.CollectSink
	if err := RunGrid(context.Background(), addrs, g, Options{Dial: dial}, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != g.NumJobs() {
		t.Fatalf("delivered %d results, want %d", len(got.Results), g.NumJobs())
	}
	for i, r := range runners {
		if st := r.MemoStats(); st.Hits+st.Misses == 0 {
			t.Errorf("worker %d ran no job: %v", i, st)
		}
	}
}

// rangeGate holds a coordinator's writes to one worker after its first
// range until every worker's first range is written. The coordinator
// writes the grid in one write (it is small here), then one write per
// range, all from one goroutine at a time.
type rangeGate struct {
	net.Conn
	writes int
	first  *sync.WaitGroup
}

func (c *rangeGate) Write(b []byte) (int, error) {
	c.writes++
	if c.writes > 2 {
		c.first.Wait()
	}
	n, err := c.Conn.Write(b)
	if c.writes == 2 {
		c.first.Done()
	}
	return n, err
}
