package dynopt_test

import (
	"testing"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dynopt"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestTracerSeesLifecycle pins the tracer protocol: on every registered
// workload, under every selector, the simulator drives its tracer through
// exactly the ordered enter, transition, exit and selected callbacks
// (region and exit target included) of the frozen event-at-a-time
// reference, their counts agree with the report, and the two runs' results
// are identical.
func TestTracerSeesLifecycle(t *testing.T) {
	for _, name := range workloads.Names() {
		prog := workloads.MustGet(name).Build(120)
		for _, newSel := range difftest.Selectors(core.DefaultParams()) {
			log, refLog := &difftest.TraceLog{}, &difftest.TraceLog{}
			res, err := dynopt.Run(prog, dynopt.Config{Selector: newSel(), Tracer: log})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := difftest.RefRun(prog, dynopt.Config{Selector: newSel(), Tracer: refLog})
			if err != nil {
				t.Fatal(err)
			}
			sel := res.Report.Selector
			if err := log.Diff(refLog); err != nil {
				t.Errorf("%s/%s: %v", name, sel, err)
			}
			if err := difftest.CompareResults(res, ref); err != nil {
				t.Errorf("%s/%s: %v", name, sel, err)
			}
			counts := map[string]uint64{}
			for _, ev := range log.Events {
				counts[ev.Kind]++
			}
			rep := res.Report
			if counts["enter"] != rep.CacheEnters || counts["transition"] != rep.Transitions ||
				counts["exit"] != rep.CacheExits || counts["selected"] != uint64(rep.Regions) {
				t.Errorf("%s/%s: tracer counts %v, report enters %d transitions %d exits %d regions %d",
					name, sel, counts, rep.CacheEnters, rep.Transitions, rep.CacheExits, rep.Regions)
			}
		}
	}
}

// TestBatchSplitsAgree pins the walk's state across batch ends: one
// recording per workload, replayed under every selector through BlockBatch
// in chunks of 1, 2, 7 and 64 events, must give the result of the same
// events replayed as one whole slice. Live runs end batches mid-region.
func TestBatchSplitsAgree(t *testing.T) {
	for _, name := range workloads.Names() {
		prog := workloads.MustGet(name).Build(120)
		rec := tracestream.NewMemRecorder(prog, name, 120)
		st, err := dynopt.Record(prog, vm.Config{}, nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		c := rec.Corpus(st)
		h := c.Header()
		events := c.Stream.Events
		for _, newSel := range difftest.Selectors(core.DefaultParams()) {
			whole, err := dynopt.RunEvents(prog, dynopt.Config{Selector: newSel()}, events, h.FinalPC, h.Instrs)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 7, 64} {
				split, err := dynopt.RunStream(prog, dynopt.Config{Selector: newSel()},
					func(sink vm.BlockSink) (isa.Addr, uint64, error) {
						for i := 0; i < len(events); i += n {
							sink.BlockBatch(events[i:min(i+n, len(events))])
						}
						return h.FinalPC, h.Instrs, nil
					})
				if err != nil {
					t.Fatal(err)
				}
				if err := difftest.CompareResults(split, whole); err != nil {
					t.Errorf("%s/%s in batches of %d: %v", name, whole.Report.Selector, n, err)
				}
			}
		}
	}
}

// TestMultipathWalkFallsBackToBlockIndex pins the multipath step for
// transfers the listed successors do not name: any member block keeps
// control in the region, since the step probes the block index, not the
// successor lists. Every region of a warm NET run is preloaded as a
// multipath region with no listed successors, and the result must match
// the reference's.
func TestMultipathWalkFallsBackToBlockIndex(t *testing.T) {
	for _, name := range workloads.Names() {
		prog := workloads.MustGet(name).Build(120)
		warm, err := dynopt.Run(prog, dynopt.Config{Selector: core.NewNET(core.DefaultParams())})
		if err != nil {
			t.Fatal(err)
		}
		snap := warm.Cache.Snapshot()
		for i := range snap {
			snap[i].Kind = codecache.KindMultipath
			snap[i].Succs = make([][]int, len(snap[i].Blocks))
		}
		cfg := func() dynopt.Config {
			return dynopt.Config{Selector: core.NewNET(core.DefaultParams()), Preload: snap}
		}
		res, err := dynopt.Run(prog, cfg())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := difftest.RefRun(prog, cfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := difftest.CompareResults(res, ref); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(snap) > 0 && res.Report.CacheInstrs == 0 {
			t.Errorf("%s: %d preloaded regions never executed", name, len(snap))
		}
	}
}

// TestRepeatSkipWaitsForStateToReturn pins the condition of a periodic
// skip: a period walked inside the cache counts for the ones after it only
// when it came back to the region and block it started from. Block X falls
// through to Y, which branches back to X, and the preloaded cache holds
// A = [X] and B = [Y, X]. The interpreter enters A at X; the next period
// leaves A for B and ends in B at X, so its growth (a transition out of A)
// must not be repeated; only the period after, from B back to B, may be.
func TestRepeatSkipWaitsForStateToReturn(t *testing.T) {
	prog, err := program.New([]isa.Instr{
		{Op: isa.Br, Cond: isa.CondGt, SrcA: 1, SrcB: 0, Target: 2}, // X
		{Op: isa.Br, Cond: isa.CondGt, SrcA: 1, SrcB: 0, Target: 0}, // Y
		{Op: isa.Halt},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, y := codecache.BlockSpec{Start: 0, Len: 1}, codecache.BlockSpec{Start: 1, Len: 1}
	preload := []codecache.RegionSnapshot{
		{Entry: 0, Blocks: []codecache.BlockSpec{x}},
		{Entry: 1, Blocks: []codecache.BlockSpec{y, x}},
	}
	var events []vm.BlockEvent
	for range 40 {
		events = append(events,
			vm.BlockEvent{Src: 0, Tgt: 1, Kind: vm.KindCond},
			vm.BlockEvent{Src: 1, Tgt: 0, Kind: vm.KindCond, Taken: true})
	}
	events = append(events, vm.BlockEvent{Src: 0, Tgt: 1, Kind: vm.KindCond}, vm.BlockEvent{Src: 1, Tgt: 2, Kind: vm.KindCond})
	idle := core.DefaultParams()
	idle.NETThreshold = 1 << 30
	cfg := func() dynopt.Config { return dynopt.Config{Selector: core.NewNET(idle), Preload: preload} }
	c := tracestream.NewCorpus(&tracestream.Stream{Events: events}, prog)
	if len(c.Repeats()) == 0 {
		t.Fatal("the stream lists no repeat")
	}
	got, err := c.Replay(cfg())
	if err != nil {
		t.Fatal(err)
	}
	want, err := difftest.RefRunEvents(prog, cfg(), events, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := difftest.CompareResults(got, want); err != nil {
		t.Error(err)
	}
	if got.Collector.SkippedEvents == 0 {
		t.Error("no period was skipped")
	}
}
