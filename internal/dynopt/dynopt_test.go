package dynopt

import (
	"errors"
	"testing"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// preloaded is a selector that inserts a fixed region spec on the first
// interpreted transfer and records the callbacks it receives.
type preloaded struct {
	spec      codecache.Spec
	inserted  bool
	transfers []core.Event
	exits     []isa.Addr
	exitSrcs  []isa.Addr
}

func (s *preloaded) Name() string { return "preloaded" }

func (s *preloaded) Transfer(env core.Env, ev core.Event) {
	s.transfers = append(s.transfers, ev)
	if !s.inserted {
		s.inserted = true
		if _, err := env.Insert(s.spec); err != nil {
			env.Fail(err)
		}
	}
}

func (s *preloaded) CacheExit(env core.Env, src, tgt isa.Addr) {
	s.exitSrcs = append(s.exitSrcs, src)
	s.exits = append(s.exits, tgt)
}

func (s *preloaded) Stats() core.ProfileStats { return core.ProfileStats{} }

// noop never selects anything.
type noop struct{}

func (noop) Name() string                           { return "noop" }
func (noop) Transfer(core.Env, core.Event)          {}
func (noop) CacheExit(core.Env, isa.Addr, isa.Addr) {}
func (noop) Stats() core.ProfileStats               { return core.ProfileStats{} }

// loopProgram:
//
//	0: movi r1, N        entry [0..0]
//	1: addi r1, r1, -1   body A [1..2]
//	2: nop
//	3: bgt r1, r0, 1     B-tail [3]
//	4: halt
func loopProgram(t *testing.T, n int64) *program.Program {
	t.Helper()
	b := program.NewBuilder()
	b.MovImm(1, n)
	b.Label("loop")
	b.AddImm(1, 1, -1)
	b.Nop()
	b.Label("tail")
	b.Br(isa.CondGt, 1, 0, "loop")
	b.Halt()
	return b.MustBuild()
}

func TestAttributionMatchesVM(t *testing.T) {
	// The simulator's per-block accounting must exactly reproduce the VM's
	// executed-instruction count for every workload under every selector.
	// (Run is self-checking, so any mismatch fails the run itself.)
	for _, wname := range append(workloads.SpecNames(), "fig2-loop-call", "fig3-nested-loops", "fig4-unbiased") {
		w := workloads.MustGet(wname)
		prog := w.Build(50)
		for _, sel := range []core.Selector{
			core.NewNET(core.DefaultParams()),
			core.NewLEI(core.DefaultParams()),
			core.NewCombiner(core.BaseNET, core.DefaultParams()),
			core.NewCombiner(core.BaseLEI, core.DefaultParams()),
		} {
			res, err := Run(prog, Config{Selector: sel})
			if err != nil {
				t.Fatalf("%s/%s: %v", wname, sel.Name(), err)
			}
			if res.Report.TotalInstrs != res.VMStats.Instrs {
				t.Errorf("%s/%s: attribution mismatch", wname, sel.Name())
			}
			if res.Report.CacheInstrs > res.Report.TotalInstrs {
				t.Errorf("%s/%s: cache instrs exceed total", wname, sel.Name())
			}
		}
	}
}

func TestSteadyStateAllocFree(t *testing.T) {
	// Once a hot loop has been selected into the code cache, delivering its
	// block events must not allocate: the in-cache path of transfer touches
	// only pre-grown counters and the region's own tables. This pins the
	// zero-allocation steady state the batched block stream was built for.
	prog := loopProgram(t, 1)
	sim := NewSimulator(prog, Config{Selector: core.NewNET(core.DefaultParams())})
	sim.pos = prog.Entry()
	// Warm up: fall through the entry block, then spin the loop's backward
	// branch until NET selects the region and the simulator enters the cache.
	sim.BlockBatch([]vm.BlockEvent{{Src: 0, Tgt: 1, Taken: false}})
	hot := []vm.BlockEvent{{Src: 3, Tgt: 1, Kind: vm.KindCond, Taken: true}}
	for i := 0; i < 200; i++ {
		sim.BlockBatch(hot)
	}
	if sim.region == nil {
		t.Fatal("warm-up did not enter the code cache")
	}
	batch := make([]vm.BlockEvent, 64)
	for i := range batch {
		batch[i] = vm.BlockEvent{Src: 3, Tgt: 1, Kind: vm.KindCond, Taken: true}
	}
	if allocs := testing.AllocsPerRun(100, func() { sim.BlockBatch(batch) }); allocs != 0 {
		t.Fatalf("steady-state block delivery allocated %.1f times per batch, want 0", allocs)
	}
	if sim.region == nil {
		t.Fatal("simulator left the cache during steady state")
	}
}

func TestNoSelectionMeansNoCache(t *testing.T) {
	res, err := Run(loopProgram(t, 100), Config{Selector: noop{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CacheInstrs != 0 || res.Report.Regions != 0 || res.Report.HitRate != 0 {
		t.Errorf("noop selector produced cache activity: %+v", res.Report)
	}
	if res.Report.TotalInstrs == 0 || res.Report.InterpBranches == 0 {
		t.Error("no execution recorded")
	}
}

func TestRegionEntryOnlyOnTakenBranch(t *testing.T) {
	p := loopProgram(t, 50)
	// Region = the loop body block [1..2] chained with tail [3], cyclic.
	sel := &preloaded{spec: codecache.Spec{
		Entry: 1,
		Kind:  codecache.KindTrace,
		Blocks: []codecache.BlockSpec{
			{Start: 1, Len: 2},
			{Start: 3, Len: 1},
		},
		Cyclic: true,
	}}
	res, err := Run(p, Config{Selector: sel})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := res.Cache.Lookup(1)
	if !ok {
		t.Fatal("region missing")
	}
	// Execution: entry block 0 falls into 1 (no cache entry on
	// fall-through), loop runs interpreted once until the backward branch
	// 3->1 enters the region; then the region cycles internally until the
	// final not-taken branch exits at 4.
	if r.Entries != 1 {
		t.Errorf("Entries = %d, want 1 (fall-through must not enter)", r.Entries)
	}
	if r.CycleTraversals == 0 {
		t.Error("no executed cycles recorded")
	}
	if res.Report.Transitions != 0 {
		t.Errorf("Transitions = %d, want 0 (single region)", res.Report.Transitions)
	}
	// One exit: the final fall-through to the halt block.
	if len(sel.exits) != 1 || sel.exits[0] != 4 {
		t.Errorf("exits = %v, want [4]", sel.exits)
	}
	// The exit source is the original address of the region block's last
	// instruction (the branch at 3).
	if len(sel.exitSrcs) != 1 || sel.exitSrcs[0] != 3 {
		t.Errorf("exit srcs = %v, want [3]", sel.exitSrcs)
	}
	// Hit rate: 50 iterations of 3 instructions; all but the first run
	// cached, and the final traversal exits after the full block.
	if res.Report.CacheInstrs != uint64(49*3) {
		t.Errorf("CacheInstrs = %d, want 147", res.Report.CacheInstrs)
	}
}

func TestRegionTransitions(t *testing.T) {
	// Two single-block regions A and B where A's exit leads to B's entry:
	// each A->B hop is a region transition.
	b := program.NewBuilder()
	b.MovImm(1, 30)
	b.Label("a")
	b.AddImm(1, 1, -1)
	b.Jmp("b")
	b.Label("b")
	b.Nop()
	b.Br(isa.CondGt, 1, 0, "a")
	b.Halt()
	p := b.MustBuild()

	sel := &twoRegions{}
	res, err := Run(p, Config{Selector: sel})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Regions != 2 {
		t.Fatalf("regions = %d", res.Report.Regions)
	}
	if res.Report.Transitions == 0 {
		t.Error("no transitions counted between linked regions")
	}
	// Every transition is between different regions here: A jmp-> B,
	// B br-> A.
	if res.Report.Transitions < 50 {
		t.Errorf("transitions = %d, expected ~58", res.Report.Transitions)
	}
}

// twoRegions inserts single-block regions for blocks "a" (1..2) and
// "b" (3..4) on the first transfer.
type twoRegions struct{ done bool }

func (s *twoRegions) Name() string { return "two" }
func (s *twoRegions) Transfer(env core.Env, ev core.Event) {
	if s.done {
		return
	}
	s.done = true
	for _, spec := range []codecache.Spec{
		{Entry: 1, Kind: codecache.KindTrace, Blocks: []codecache.BlockSpec{{Start: 1, Len: 2}}},
		{Entry: 3, Kind: codecache.KindTrace, Blocks: []codecache.BlockSpec{{Start: 3, Len: 2}}},
	} {
		if _, err := env.Insert(spec); err != nil {
			env.Fail(err)
		}
	}
}
func (s *twoRegions) CacheExit(core.Env, isa.Addr, isa.Addr) {}
func (s *twoRegions) Stats() core.ProfileStats               { return core.ProfileStats{} }

func TestSelectorErrorPropagates(t *testing.T) {
	sel := &failing{}
	_, err := Run(loopProgram(t, 10), Config{Selector: sel})
	if err == nil || !errors.Is(err, errBoom) {
		t.Errorf("err = %v, want errBoom", err)
	}
}

var errBoom = errors.New("boom")

type failing struct{ done bool }

func (s *failing) Name() string { return "failing" }
func (s *failing) Transfer(env core.Env, ev core.Event) {
	if !s.done {
		s.done = true
		env.Fail(errBoom)
	}
}
func (s *failing) CacheExit(core.Env, isa.Addr, isa.Addr) {}
func (s *failing) Stats() core.ProfileStats               { return core.ProfileStats{} }

func TestNilSelector(t *testing.T) {
	if _, err := Run(loopProgram(t, 1), Config{}); err == nil {
		t.Error("nil selector accepted")
	}
}

func TestVMErrorPropagates(t *testing.T) {
	b := program.NewBuilder()
	b.Label("spin")
	b.Jmp("spin")
	b.Halt()
	_, err := Run(b.MustBuild(), Config{Selector: noop{}, VM: vm.Config{MaxInstrs: 64}})
	if !errors.Is(err, vm.ErrMaxInstrs) {
		t.Errorf("err = %v", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	w := workloads.MustGet("twolf")
	p := w.Build(100)
	run := func() Result {
		res, err := Run(p, Config{Selector: core.NewLEI(core.DefaultParams())})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Report != b.Report {
		t.Errorf("non-deterministic reports:\n%v\nvs\n%v", a.Report, b.Report)
	}
}

func TestBoundedCacheRun(t *testing.T) {
	w := workloads.MustGet("gcc")
	p := w.Build(200)
	res, err := Run(p, Config{
		Selector:        core.NewNET(core.DefaultParams()),
		CacheLimitBytes: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Flushes() == 0 {
		t.Error("tiny cache never flushed")
	}
	if res.Report.TotalInstrs != res.VMStats.Instrs {
		t.Error("attribution broke under flushing")
	}
}

func TestPreloadWarmStart(t *testing.T) {
	prog := workloads.MustGet("mcf").Build(200)
	cold, err := Run(prog, Config{Selector: core.NewLEI(core.DefaultParams())})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(prog, Config{
		Selector: core.NewLEI(core.DefaultParams()),
		Preload:  cold.Cache.Snapshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Report.HitRate <= cold.Report.HitRate {
		t.Errorf("warm hit %.4f not above cold %.4f", warm.Report.HitRate, cold.Report.HitRate)
	}
	if warm.Report.InterpBranches >= cold.Report.InterpBranches/2 {
		t.Errorf("warm interp branches %d vs cold %d: warm-up not skipped",
			warm.Report.InterpBranches, cold.Report.InterpBranches)
	}
	if warm.Report.Regions > cold.Report.Regions {
		t.Errorf("warm run selected extra regions: %d vs %d", warm.Report.Regions, cold.Report.Regions)
	}
}

func TestPreloadMismatchErrors(t *testing.T) {
	prog := workloads.MustGet("mcf").Build(10)
	other := workloads.MustGet("gzip").Build(10)
	cold, err := Run(other, Config{Selector: core.NewLEI(core.DefaultParams())})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog, Config{
		Selector: core.NewLEI(core.DefaultParams()),
		Preload:  cold.Cache.Snapshot(),
	}); err == nil {
		t.Error("mismatched snapshot accepted")
	}
}

// TestAccountingInvariantsOverRandomPrograms cross-checks the simulator's
// books over a corpus of random programs and every selector:
//
//   - instructions attributed to regions sum exactly to the collector's
//     cache-executed count,
//   - hit rate is consistent with those counts,
//   - cycle traversals never exceed traversals,
//   - enters equal exits plus possibly one (a run can end inside a region).
func TestAccountingInvariantsOverRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		prog := workloads.Random(workloads.GenConfig{
			Seed: seed, Funcs: int(seed % 5), MaxDepth: 2 + int(seed%3),
			Iters: 250, Constructs: 5,
		})
		for _, mk := range []func() core.Selector{
			func() core.Selector { return core.NewNET(core.DefaultParams()) },
			func() core.Selector { return core.NewLEI(core.DefaultParams()) },
			func() core.Selector { return core.NewCombiner(core.BaseNET, core.DefaultParams()) },
			func() core.Selector { return core.NewCombiner(core.BaseLEI, core.DefaultParams()) },
			func() core.Selector { return core.NewBOA(core.DefaultParams()) },
			func() core.Selector { return core.NewWRS(core.DefaultParams()) },
		} {
			sel := mk()
			res, err := Run(prog, Config{Selector: sel})
			if err != nil {
				t.Fatalf("seed %d / %s: %v", seed, sel.Name(), err)
			}
			var regionInstrs, traversals, cycles, enters uint64
			for _, r := range res.Cache.AllRegions() {
				regionInstrs += r.ExecInstrs
				traversals += r.Traversals
				cycles += r.CycleTraversals
				enters += r.Entries
			}
			rep := res.Report
			if regionInstrs != rep.CacheInstrs {
				t.Errorf("seed %d / %s: region instrs %d != cache instrs %d",
					seed, sel.Name(), regionInstrs, rep.CacheInstrs)
			}
			if cycles > traversals {
				t.Errorf("seed %d / %s: cycles %d > traversals %d", seed, sel.Name(), cycles, traversals)
			}
			entersCounted := rep.CacheEnters + rep.Transitions
			if enters != entersCounted {
				t.Errorf("seed %d / %s: region entries %d != enters+transitions %d",
					seed, sel.Name(), enters, entersCounted)
			}
			if rep.CacheEnters != rep.CacheExits && rep.CacheEnters != rep.CacheExits+1 {
				t.Errorf("seed %d / %s: enters %d vs exits %d", seed, sel.Name(),
					rep.CacheEnters, rep.CacheExits)
			}
		}
	}
}

// TestSelectedCodeWasExecuted: the paper's selectors are purely dynamic —
// every block they promote to the cache was actually executed. (The
// profile-driven related-work selectors share the property: their walks
// only follow observed branch outcomes and always-taken fall-throughs.)
func TestSelectedCodeWasExecuted(t *testing.T) {
	for _, bench := range []string{"gcc", "perlbmk", "vortex", "micro-phases"} {
		prog := workloads.MustGet(bench).Build(60)
		for _, selName := range []string{"net", "lei", "net+comb", "lei+comb"} {
			var sel core.Selector
			switch selName {
			case "net":
				sel = core.NewNET(core.DefaultParams())
			case "lei":
				sel = core.NewLEI(core.DefaultParams())
			case "net+comb":
				sel = core.NewCombiner(core.BaseNET, core.DefaultParams())
			default:
				sel = core.NewCombiner(core.BaseLEI, core.DefaultParams())
			}
			res, err := Run(prog, Config{Selector: sel})
			if err != nil {
				t.Fatal(err)
			}
			// A block executed iff it appears as an endpoint of an executed
			// edge (every executed block either transfers control out or
			// was transferred to).
			executed := map[isa.Addr]bool{}
			preds := res.Collector.Edges().PredsOf()
			for to, froms := range preds {
				executed[to] = true
				for _, f := range froms {
					executed[f] = true
				}
			}
			for _, r := range res.Cache.AllRegions() {
				for _, b := range r.Blocks {
					if !executed[b.Start] {
						t.Errorf("%s/%s: region %d selected never-executed block @%d",
							bench, selName, r.ID, b.Start)
					}
				}
			}
		}
	}
}
