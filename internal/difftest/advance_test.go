package difftest

import (
	"testing"

	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/program"
)

// advanceRegion inserts spec into a fresh cache over four two-instruction
// blocks at 0, 2, 4 and 6, each ending in a conditional branch back to 0,
// followed by a halt block at 8.
func advanceRegion(t *testing.T, spec codecache.Spec) *codecache.Region {
	t.Helper()
	var ins []isa.Instr
	for range 4 {
		ins = append(ins, isa.Instr{Op: isa.Nop}, isa.Instr{Op: isa.Br, Cond: isa.CondGt, SrcA: 1, SrcB: 0, Target: 0})
	}
	p, err := program.New(append(ins, isa.Instr{Op: isa.Halt}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := codecache.New(p).Insert(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func blocks(starts ...isa.Addr) []codecache.BlockSpec {
	var out []codecache.BlockSpec
	for _, s := range starts {
		out = append(out, codecache.BlockSpec{Start: s, Len: 2})
	}
	return out
}

func TestTraceAdvance(t *testing.T) {
	r := advanceRegion(t, codecache.Spec{Entry: 0, Kind: codecache.KindTrace, Blocks: blocks(0, 4), Cyclic: true})
	// Following the chain.
	if idx, stay, cyc := advance(r, 0, 4, true); !stay || idx != 1 || cyc {
		t.Errorf("chain advance = %d,%v,%v", idx, stay, cyc)
	}
	// Cycle back to the head.
	if idx, stay, cyc := advance(r, 1, 0, true); !stay || idx != 0 || !cyc {
		t.Errorf("cycle advance = %d,%v,%v", idx, stay, cyc)
	}
	// Side exit off-trace.
	if _, stay, _ := advance(r, 0, 2, false); stay {
		t.Error("off-trace fall-through should exit")
	}
	// Fall-through to the head is an exit, not a cycle.
	if _, stay, _ := advance(r, 1, 0, false); stay {
		t.Error("fall-through to head should exit (not a taken branch)")
	}
	// A taken side exit targeting the head stays (linked back to self).
	if idx, stay, cyc := advance(r, 0, 0, true); !stay || idx != 0 || !cyc {
		t.Errorf("taken-to-head = %d,%v,%v", idx, stay, cyc)
	}
}

func TestMultipathAdvance(t *testing.T) {
	r := advanceRegion(t, codecache.Spec{Entry: 0, Kind: codecache.KindMultipath, Blocks: blocks(0, 2, 4),
		Succs: [][]int{{1, 2}, {}, {0}}})
	if idx, stay, _ := advance(r, 0, 2, false); !stay || idx != 1 {
		t.Errorf("to member 2: %d,%v", idx, stay)
	}
	if idx, stay, cyc := advance(r, 2, 0, true); !stay || idx != 0 || !cyc {
		t.Errorf("back edge: %d,%v,%v", idx, stay, cyc)
	}
	if _, stay, _ := advance(r, 1, 6, true); stay {
		t.Error("to non-member should exit")
	}
	// Block 1 lists no successors, yet a transfer to any member stays.
	if idx, stay, cyc := advance(r, 1, 4, false); !stay || idx != 2 || cyc {
		t.Errorf("to unlisted member 4: %d,%v,%v", idx, stay, cyc)
	}
	if idx, stay, cyc := advance(r, 1, 0, true); !stay || idx != 0 || !cyc {
		t.Errorf("to unlisted entry: %d,%v,%v", idx, stay, cyc)
	}
	if idx, stay, cyc := advance(r, 2, 6, false); stay || idx != 0 || cyc {
		t.Errorf("fall-through exit: %d,%v,%v", idx, stay, cyc)
	}
}
