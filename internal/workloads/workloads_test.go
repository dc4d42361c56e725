package workloads

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/vm"
)

func TestRegistryCoherent(t *testing.T) {
	names := Names()
	if len(names) < 15 {
		t.Fatalf("only %d workloads registered", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate name %q", n)
		}
		seen[n] = true
		w, ok := Get(n)
		if !ok || w.Name != n || w.Build == nil || w.Description == "" || w.DefaultScale <= 0 {
			t.Errorf("workload %q malformed: %+v", n, w)
		}
	}
	for _, n := range SpecNames() {
		if !seen[n] {
			t.Errorf("SPEC workload %q missing", n)
		}
	}
	if len(SpecNames()) != 12 {
		t.Error("SPEC suite must have 12 benchmarks")
	}
	if _, ok := Get("no-such-bench"); ok {
		t.Error("Get of unknown workload succeeded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustGet of unknown workload did not panic")
			}
		}()
		MustGet("no-such-bench")
	}()
}

// TestAllWorkloadsRunToCompletion is the workload suite's core guarantee:
// every registered program halts, well within its instruction budget, at
// every scale the test suite uses.
func TestAllWorkloadsRunToCompletion(t *testing.T) {
	for _, name := range Names() {
		w := MustGet(name)
		for _, scale := range []int{1, 25, 0} {
			prog := w.Build(scale)
			st, err := vm.Run(prog, vm.Config{MaxInstrs: 1 << 28}, nil)
			if err != nil {
				t.Fatalf("%s scale=%d: %v", name, scale, err)
			}
			if st.Instrs == 0 || st.Branches == 0 {
				t.Errorf("%s scale=%d: trivial run (%d instrs)", name, scale, st.Instrs)
			}
		}
	}
}

func TestDefaultScalesAreReasonable(t *testing.T) {
	// Default-scale runs must be big enough to exercise selection (well
	// past the thresholds) but small enough to keep the experiment harness
	// fast.
	for _, name := range SpecNames() {
		prog := MustGet(name).BuildDefault()
		st, err := vm.Run(prog, vm.Config{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Instrs < 100_000 {
			t.Errorf("%s: only %d instructions at default scale", name, st.Instrs)
		}
		if st.Instrs > 50_000_000 {
			t.Errorf("%s: %d instructions is excessive", name, st.Instrs)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range []string{"gcc", "twolf", "perlbmk"} {
		w := MustGet(name)
		p1 := w.Build(30)
		p2 := w.Build(30)
		s1, err := vm.Run(p1, vm.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := vm.Run(p2, vm.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 {
			t.Errorf("%s: two builds ran differently: %+v vs %+v", name, s1, s2)
		}
	}
}

func TestScaleChangesWork(t *testing.T) {
	w := MustGet("gzip")
	small, err := vm.Run(w.Build(10), vm.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	large, err := vm.Run(w.Build(100), vm.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if large.Instrs < 5*small.Instrs {
		t.Errorf("scale barely affects size: %d vs %d", small.Instrs, large.Instrs)
	}
}

func TestMicroWorkloadShapes(t *testing.T) {
	// LoopWithCall: the callee must sit below its call site so the call is
	// a backward branch (the Figure 2 premise).
	p := LoopWithCall(10)
	var callAddr, calleeEntry isa.Addr
	found := false
	for a := isa.Addr(0); int(a) < p.Len(); a++ {
		in := p.At(a)
		if in.Op == isa.Call {
			callAddr, calleeEntry = a, in.Target
			found = true
		}
	}
	if !found {
		t.Fatal("no call in LoopWithCall")
	}
	if calleeEntry > callAddr {
		t.Errorf("call at %d targets %d: not backward", callAddr, calleeEntry)
	}

	// NestedLoops: B must be a self-looping single block reached by
	// fall-through from A.
	np := NestedLoops(3, 4)
	bAddr, ok := np.Label("B")
	if !ok {
		t.Fatal("no label B")
	}
	end := np.BlockEnd(bAddr)
	last := np.At(end - 1)
	if last.Op != isa.Br || last.Target != bAddr {
		t.Errorf("B does not self-loop: %s", last)
	}

	// UnbiasedBranch: the A branch must be roughly 50/50. Count dynamic
	// outcomes.
	up := UnbiasedBranch(4000)
	taken := 0
	var total int
	_, err := vm.Run(up, vm.Config{}, takenFunc(func(src, tgt isa.Addr, kind vm.BranchKind) {
		cLabel, _ := up.Label("C")
		if tgt == cLabel {
			taken++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	total = 4000
	ratio := float64(taken) / float64(total)
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("A->C ratio = %.3f, want ~0.5", ratio)
	}
}

func TestRandomProgramsTerminate(t *testing.T) {
	check := func(seed int64, funcs uint8, depth uint8, constructs uint8) bool {
		cfg := GenConfig{
			Seed:       seed,
			Funcs:      int(funcs % 9),
			MaxDepth:   1 + int(depth%4),
			Iters:      10,
			Constructs: 1 + int(constructs%8),
		}
		p := Random(cfg)
		st, err := vm.Run(p, vm.Config{MaxInstrs: 1 << 26}, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Regenerating with the same config gives the identical program.
		p2 := Random(cfg)
		if p.Len() != p2.Len() {
			t.Logf("seed %d: non-deterministic generation", seed)
			return false
		}
		st2, err := vm.Run(p2, vm.Config{MaxInstrs: 1 << 26}, nil)
		if err != nil || st != st2 {
			t.Logf("seed %d: runs differ", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomProgramsValid(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p := Random(GenConfig{Seed: seed, Funcs: int(seed % 6)})
		// Every block leader must be addressable and every direct branch
		// target a leader (program.New validates most of this; assert the
		// program is non-trivial).
		if p.Len() < 5 {
			t.Errorf("seed %d: trivial program (%d instrs)", seed, p.Len())
		}
		if p.NumBlocks() < 2 {
			t.Errorf("seed %d: no branching structure", seed)
		}
	}
}

var _ = program.Program{} // keep the import for helper types

// TestAllWorkloadsVerify runs deep structural validation over every
// registered workload and a batch of random programs.
func TestAllWorkloadsVerify(t *testing.T) {
	for _, name := range Names() {
		if err := MustGet(name).Build(1).Verify(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for seed := int64(0); seed < 25; seed++ {
		p := Random(GenConfig{Seed: seed, Funcs: int(seed % 7)})
		if err := p.Verify(); err != nil {
			t.Errorf("random seed %d: %v", seed, err)
		}
	}
}
