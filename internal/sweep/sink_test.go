package sweep

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
)

// deliverPermutation hands indices [base, base+n) to an OrderedSink in the
// given arrival order, one goroutine per index. Goroutine-per-index is
// essential: with a window of w, an arrival more than w ahead of the
// frontier blocks until earlier deliveries land, so a single sequential
// deliverer would deadlock on most permutations.
func deliverPermutation(t *testing.T, base, window int, perm []int) []int {
	t.Helper()
	var got []int
	sink := FuncSink(func(r Result) { got = append(got, r.Index) })
	d := NewOrderedSink(base, window, sink)
	var wg sync.WaitGroup
	for _, idx := range perm {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.Deliver(Result{Index: i})
		}(base + idx)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.Cancel()
		t.Fatalf("deliveries deadlocked (base=%d window=%d perm=%v)", base, window, perm)
	}
	return got
}

// TestOrderedSinkPermutations is the property test for the reorder ring's
// edge cases: for window=1 (every producer serialized on the frontier) and
// small windows, any out-of-order arrival permutation — including with a
// nonzero base — must come out as exactly the sorted index sequence, each
// index delivered once.
func TestOrderedSinkPermutations(t *testing.T) {
	perms := func(n int) [][]int {
		var out [][]int
		var rec func(prefix, rest []int)
		rec = func(prefix, rest []int) {
			if len(rest) == 0 {
				out = append(out, append([]int(nil), prefix...))
				return
			}
			for i := range rest {
				next := append(append([]int(nil), rest[i]), rest[:i]...)
				rec(append(prefix, rest[i]), append(next[1:], rest[i+1:]...))
			}
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		rec(nil, idx)
		return out
	}
	for _, tc := range []struct {
		name         string
		base, window int
		n            int
	}{
		{"window1", 0, 1, 5},
		{"window1-base7", 7, 1, 5},
		{"window2-base1000", 1000, 2, 5},
		{"window3", 0, 3, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, perm := range perms(tc.n) {
				got := deliverPermutation(t, tc.base, tc.window, perm)
				if len(got) != tc.n {
					t.Fatalf("perm %v: delivered %d results, want %d", perm, len(got), tc.n)
				}
				for i, idx := range got {
					if idx != tc.base+i {
						t.Fatalf("perm %v: delivery %d has index %d, want %d (order: %v)",
							perm, i, idx, tc.base+i, got)
					}
				}
			}
		})
	}
}

// TestOrderedSinkRandomPermutations widens the property to larger index
// sets and windows than exhaustive enumeration can reach.
func TestOrderedSinkRandomPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		window := 1 + rng.Intn(4)
		base := rng.Intn(1 << 16)
		perm := rng.Perm(n)
		got := deliverPermutation(t, base, window, perm)
		if len(got) != n {
			t.Fatalf("trial %d: delivered %d results, want %d", trial, len(got), n)
		}
		for i, idx := range got {
			if idx != base+i {
				t.Fatalf("trial %d (base=%d window=%d): delivery %d has index %d, want %d",
					trial, base, window, i, idx, base+i)
			}
		}
	}
}

// TestOrderedSinkCancelUnblocks pins Cancel's contract: producers blocked
// on the window wake up, and their results are dropped rather than
// delivered out of order.
func TestOrderedSinkCancelUnblocks(t *testing.T) {
	var got []int
	d := NewOrderedSink(0, 1, FuncSink(func(r Result) { got = append(got, r.Index) }))
	blocked := make(chan struct{})
	go func() {
		d.Deliver(Result{Index: 2}) // 2 >= next(0)+window(1): blocks
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("out-of-window delivery did not block")
	case <-time.After(20 * time.Millisecond):
	}
	d.Cancel()
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel did not unblock the producer")
	}
	d.Deliver(Result{Index: 0}) // post-cancel deliveries are dropped too
	if len(got) != 0 {
		t.Fatalf("cancelled ring delivered %v", got)
	}
}

// TestWarmRunReusesRing pins the engine's ring free list: once a run has
// returned its reorder ring, the next run on a warm Runner re-arms that
// ring instead of allocating one, so a warm pass allocates less than one
// ring's slots.
func TestWarmRunReusesRing(t *testing.T) {
	var cfgs []Config
	for th := 4; th < 20; th++ {
		p := core.DefaultParams()
		p.NETThreshold = th
		cfgs = append(cfgs, Config{Params: p})
	}
	g := Grid{Workloads: []string{"gzip"}, Scale: testScale, Selectors: PaperSelectors(), Configs: cfgs}
	r := NewRunner()
	run := func() {
		t.Helper()
		var sink CountingSink
		if err := r.RunGrid(context.Background(), g, Options{Shards: 1}, &sink); err != nil {
			t.Fatal(err)
		}
		if sink.N != g.NumJobs() {
			t.Fatalf("delivered %d of %d jobs", sink.N, g.NumJobs())
		}
	}
	run()
	run()
	idle := ringPool.idle[len(ringPool.idle)-1]
	slots := &idle.buf[0]
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if got := ringPool.idle[len(ringPool.idle)-1]; got != idle || &got.buf[0] != slots {
		t.Error("a warm run left a different ring on the idle list")
	}
	ring := uint64(g.NumJobs()) * uint64(unsafe.Sizeof(Result{}))
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= ring {
		t.Errorf("a warm run allocated %d bytes, want less than one %d-byte ring", perRun, ring)
	} else {
		t.Logf("a warm run allocated %d bytes; a ring's slots are %d", perRun, ring)
	}
}
