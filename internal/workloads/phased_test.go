package workloads

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

func TestPhasedDeterministic(t *testing.T) {
	a := Phased(42, 150_000)
	b := Phased(42, 150_000)
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

func TestPhasedSizeTracksTarget(t *testing.T) {
	for _, size := range []int{100_000, 400_000} {
		p := Phased(0xFA5E, size)
		stats, err := vm.New(p, vm.Config{}).Run(nil)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if stats.Instrs < uint64(size)/3 || stats.Instrs > uint64(size)*3 {
			t.Errorf("size %d: executed %d dynamic instructions, want within 3x of target", size, stats.Instrs)
		}
	}
}

// TestPhasedRegimesAreOrdered checks the defining property of the phased
// workload: execution moves through the three kernel regimes as long
// consecutive spans — the phase a taken branch belongs to (derived from
// its source function's name) changes only a handful of times over the
// whole run, rather than flipping constantly the way Synthetic's shuffled
// kernels do.
func TestPhasedRegimesAreOrdered(t *testing.T) {
	p := Phased(7, 120_000)
	phaseOf := func(src isa.Addr) int {
		fn, ok := p.FuncAt(src)
		if !ok || fn.Name == "main" {
			return -1 // glue code between kernels; not part of any regime
		}
		switch {
		case strings.Contains(fn.Name, "_nest"):
			return 0
		case strings.Contains(fn.Name, "_h"), strings.Contains(fn.Name, "_calls"):
			return 1
		case strings.Contains(fn.Name, "_disp"):
			return 2
		}
		return -1
	}
	transitions, last, branches := 0, -1, 0
	seen := [3]int{}
	if _, err := vm.New(p, vm.Config{}).Run(takenFunc(func(src, _ isa.Addr, _ vm.BranchKind) {
		branches++
		ph := phaseOf(src)
		if ph < 0 {
			return
		}
		seen[ph]++
		if ph != last && last >= 0 {
			transitions++
		}
		last = ph
	})); err != nil {
		t.Fatal(err)
	}
	if branches < 3000 {
		t.Fatalf("only %d taken branches; phased program too small to have regimes", branches)
	}
	for ph, n := range seen {
		if n < branches/20 {
			t.Errorf("phase %d contributes only %d of %d taken branches; regime missing", ph, n, branches)
		}
	}
	// Six rounds of three phases are 18 regime spans (17 changes); allow a
	// little glue slack but nothing like the constant interleaving a
	// shuffled generator produces.
	if transitions > 24 {
		t.Errorf("phase changed %d times during execution; regimes are not consecutive spans", transitions)
	}
}

func TestPhasedRegistered(t *testing.T) {
	w, ok := Get("phased")
	if !ok {
		t.Fatal("phased workload not registered")
	}
	p := w.Build(50_000)
	if p.Len() == 0 {
		t.Fatal("empty phased program")
	}
	if programsIdentical(w.BuildInput(50_000, 0), w.BuildInput(50_000, 1)) {
		t.Fatal("input variants identical")
	}
}
