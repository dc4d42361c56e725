package vm_test

import (
	"testing"

	"repro/internal/difftest"
	"repro/internal/vm"
)

// TestPredecodedMatchesReference checks the segment dispatch loop against
// the frozen instruction-at-a-time interpreter, difftest.RefMachine, over
// this package's corpus: the same block-event stream (fall-throughs
// included), Stats, error text, registers and memory. It runs in
// internal/vm so the package's own tests fail on a divergence;
// difftest's TestDiffVM runs a larger corpus against the same reference.
func TestPredecodedMatchesReference(t *testing.T) {
	for name, p := range vm.Corpus(t) {
		t.Run(name, func(t *testing.T) {
			if err := difftest.CompareVM(vm.New(p, vm.Config{}), p, vm.Config{}, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}
