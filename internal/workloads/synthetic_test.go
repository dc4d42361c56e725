package workloads

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/vm"
)

func programsIdentical(a, b *program.Program) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(isa.Addr(i)) != b.At(isa.Addr(i)) {
			return false
		}
	}
	return true
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

// branchPrefix interprets the program and returns its first n taken-branch
// events.
func branchPrefix(t *testing.T, p *program.Program, n int) [][2]isa.Addr {
	t.Helper()
	var out [][2]isa.Addr
	m := vm.New(p, vm.Config{})
	if _, err := m.Run(takenFunc(func(src, tgt isa.Addr, _ vm.BranchKind) {
		if len(out) < n {
			out = append(out, [2]isa.Addr{src, tgt})
		}
	})); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(42, 150_000)
	b := Synthetic(42, 150_000)
	if !programsIdentical(a, b) {
		t.Fatal("same seed and size produced different programs")
	}
	sa, err := vm.New(a, vm.Config{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := vm.New(b, vm.Config{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatalf("same program executed differently: %+v vs %+v", sa, sb)
	}
}

func TestSyntheticSizeTracksTarget(t *testing.T) {
	for _, size := range []int{100_000, 400_000, 1_000_000} {
		p := Synthetic(0x5EED, size)
		stats, err := vm.New(p, vm.Config{}).Run(nil)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		// The generator works from per-iteration cost estimates, so enforce
		// a broad band, not the exact target.
		if stats.Instrs < uint64(size)/3 || stats.Instrs > uint64(size)*3 {
			t.Errorf("size %d: executed %d dynamic instructions, want within 3x of target", size, stats.Instrs)
		}
		if p.Len() < 500 {
			t.Errorf("size %d: static program only %d instructions; expected large-program stress", size, p.Len())
		}
	}
}

func TestSyntheticSeedsDiffer(t *testing.T) {
	a := Synthetic(1, 150_000)
	b := Synthetic(2, 150_000)
	if programsIdentical(a, b) {
		t.Fatal("different seeds produced identical programs")
	}
	// Even when structures overlap, the dynamic branch streams must differ.
	pa := branchPrefix(t, a, 2000)
	pb := branchPrefix(t, b, 2000)
	same := len(pa) == len(pb)
	if same {
		for i := range pa {
			if pa[i] != pb[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical taken-branch streams")
	}
}

func TestSyntheticRegistered(t *testing.T) {
	w, ok := Get("synthetic")
	if !ok {
		t.Fatal("synthetic workload not registered")
	}
	p := w.Build(50_000)
	if p.Len() == 0 {
		t.Fatal("empty synthetic program")
	}
	// BuildSeeded must vary the program like a different benchmark input.
	if programsIdentical(w.BuildInput(50_000, 0), w.BuildInput(50_000, 1)) {
		t.Fatal("input variants identical")
	}
}
