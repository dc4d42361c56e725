package codecache

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// testProgram builds a program with a variety of block shapes:
//
//	0: movi r1, 3          block A [0..1]
//	1: bgt r1, r0, 4       (to C)
//	2: addi r2, r2, 1      block B [2..3]
//	3: jmp 6
//	4: addi r2, r2, 2      block C [4..5]
//	5: bgt r2, r0, 0       (back to A)
//	6: call 9              block D [6]
//	7: nop                 block E [7..8]  (return lands here)
//	8: halt
//	9: ret                 block F [9] (function f)
func testProgram(t *testing.T) *program.Program {
	t.Helper()
	ins := []isa.Instr{
		{Op: isa.MovImm, Dst: 1, Imm: 3},
		{Op: isa.Br, Cond: isa.CondGt, SrcA: 1, SrcB: 0, Target: 4},
		{Op: isa.AddImm, Dst: 2, SrcA: 2, Imm: 1},
		{Op: isa.Jmp, Target: 6},
		{Op: isa.AddImm, Dst: 2, SrcA: 2, Imm: 2},
		{Op: isa.Br, Cond: isa.CondGt, SrcA: 2, SrcB: 0, Target: 0},
		{Op: isa.Call, Target: 9},
		{Op: isa.Nop},
		{Op: isa.Halt},
		{Op: isa.Ret},
	}
	p, err := program.New(ins, []program.Function{{Name: "f", Entry: 9, End: 10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func blockSpec(p *program.Program, start isa.Addr) BlockSpec {
	return BlockSpec{Start: start, Len: p.BlockLen(start)}
}

func TestInsertTraceAccounting(t *testing.T) {
	p := testProgram(t)
	c := New(p)
	// Trace A -> C, cyclic (C ends with a branch back to A).
	r, err := c.Insert(Spec{
		Entry:  0,
		Kind:   KindTrace,
		Blocks: []BlockSpec{blockSpec(p, 0), blockSpec(p, 4)},
		Cyclic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Instrs != 4 {
		t.Errorf("Instrs = %d, want 4", r.Instrs)
	}
	// Stubs: A's fall-through to B (taken direction internal via chain? no:
	// A->C is the taken direction, internal). C's taken direction is the
	// cycle (internal), C's fall-through to D exits. So 2 stubs.
	if r.Stubs != 2 {
		t.Errorf("Stubs = %d, want 2", r.Stubs)
	}
	wantBytes := p.RangeBytes(0, 2) + p.RangeBytes(4, 6)
	if r.CodeBytes != wantBytes {
		t.Errorf("CodeBytes = %d, want %d", r.CodeBytes, wantBytes)
	}
	if r.EstimatedBytes() != wantBytes+2*StubBytes {
		t.Errorf("EstimatedBytes = %d", r.EstimatedBytes())
	}
	if !r.Cyclic {
		t.Error("region should be cyclic")
	}
	if c.TotalInstrs() != 4 || c.TotalStubs() != 2 {
		t.Errorf("cache totals: instrs=%d stubs=%d", c.TotalInstrs(), c.TotalStubs())
	}
	if got, ok := c.Lookup(0); !ok || got != r {
		t.Error("Lookup(0) failed")
	}
	if c.HasEntry(4) {
		t.Error("HasEntry(4) should be false (4 is interior)")
	}
	if !c.ContainsInstr(5) || c.ContainsInstr(2) {
		t.Error("ContainsInstr wrong")
	}
}

func TestStubCounting(t *testing.T) {
	p := testProgram(t)
	cases := []struct {
		name  string
		spec  Spec
		stubs int
	}{
		{
			// Non-cyclic trace ending in a conditional: both directions of
			// the final branch exit, plus A's fall-through.
			name: "trace ends with conditional",
			spec: Spec{Entry: 0, Kind: KindTrace,
				Blocks: []BlockSpec{blockSpec(p, 0), blockSpec(p, 4)}},
			stubs: 3,
		},
		{
			// Single-block trace ending with an unconditional jmp: 1 stub
			// (the jump target) plus nothing else.
			name:  "trace ends with jmp",
			spec:  Spec{Entry: 2, Kind: KindTrace, Blocks: []BlockSpec{blockSpec(p, 2)}},
			stubs: 1,
		},
		{
			// Block ending in a call: one stub for the callee.
			name:  "trace ends with call",
			spec:  Spec{Entry: 6, Kind: KindTrace, Blocks: []BlockSpec{blockSpec(p, 6)}},
			stubs: 1,
		},
		{
			// Return: indirect, always one stub.
			name:  "trace ends with ret",
			spec:  Spec{Entry: 9, Kind: KindTrace, Blocks: []BlockSpec{blockSpec(p, 9)}},
			stubs: 1,
		},
		{
			// Halt block: no exit at all.
			name:  "halt block",
			spec:  Spec{Entry: 7, Kind: KindTrace, Blocks: []BlockSpec{blockSpec(p, 7)}},
			stubs: 0,
		},
		{
			// Multipath region A,B,C with internal edges A->B, A->C, C->A:
			// remaining exits are B's jmp to D and C's fall-through to D.
			name: "multipath internal edges",
			spec: Spec{Entry: 0, Kind: KindMultipath,
				Blocks: []BlockSpec{blockSpec(p, 0), blockSpec(p, 2), blockSpec(p, 4)},
				Succs:  [][]int{{1, 2}, {}, {0}}},
			stubs: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(p)
			r, err := c.Insert(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if r.Stubs != tc.stubs {
				t.Errorf("stubs = %d, want %d", r.Stubs, tc.stubs)
			}
		})
	}
}

func TestInsertValidation(t *testing.T) {
	p := testProgram(t)
	c := New(p)
	mustErr := func(name string, spec Spec, frag string) {
		t.Helper()
		if _, err := c.Insert(spec); err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("%s: err = %v, want containing %q", name, err, frag)
		}
	}
	mustErr("empty", Spec{Entry: 0}, "empty")
	mustErr("entry mismatch", Spec{Entry: 0, Blocks: []BlockSpec{blockSpec(p, 2)}}, "not the first block")
	mustErr("non-leader", Spec{Entry: 1, Blocks: []BlockSpec{{Start: 1, Len: 1}}}, "not a program block leader")
	mustErr("bad length", Spec{Entry: 0, Blocks: []BlockSpec{{Start: 0, Len: 7}}}, "length")
	mustErr("duplicate block", Spec{Entry: 0,
		Blocks: []BlockSpec{blockSpec(p, 0), blockSpec(p, 0)}}, "duplicate")
	mustErr("missing adjacency", Spec{Entry: 0, Kind: KindMultipath,
		Blocks: []BlockSpec{blockSpec(p, 0)}, Succs: nil}, "adjacency")
	mustErr("bad successor", Spec{Entry: 0, Kind: KindMultipath,
		Blocks: []BlockSpec{blockSpec(p, 0)}, Succs: [][]int{{3}}}, "out-of-range")
	mustErr("unknown kind", Spec{Entry: 0, Kind: KindMultipath + 1,
		Blocks: []BlockSpec{blockSpec(p, 0)}, Succs: [][]int{{0}}}, "unknown region kind")

	if _, err := c.Insert(Spec{Entry: 0, Kind: KindTrace, Blocks: []BlockSpec{blockSpec(p, 0)}}); err != nil {
		t.Fatal(err)
	}
	mustErr("duplicate entry", Spec{Entry: 0, Kind: KindTrace,
		Blocks: []BlockSpec{blockSpec(p, 0)}}, "already cached")
}

// ladderProgram builds n two-instruction blocks, each ending in a
// conditional branch to another block, then a halt block: every even
// address below 2n+1 leads a block.
func ladderProgram(t *testing.T, n int) *program.Program {
	t.Helper()
	var ins []isa.Instr
	for i := 0; i < n; i++ {
		ins = append(ins,
			isa.Instr{Op: isa.Nop},
			isa.Instr{Op: isa.Br, Cond: isa.CondGt, SrcA: 1, SrcB: 0, Target: isa.Addr(2 * ((7*i + 3) % n))})
	}
	ins = append(ins, isa.Instr{Op: isa.Halt})
	p, err := program.New(ins, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPooledMultipathInsertAllocFree pins the recycling of multipath
// adjacency: re-inserting a multipath region into a reset cache reuses the
// recycled region and its successor lists, with no allocation.
func TestPooledMultipathInsertAllocFree(t *testing.T) {
	p := ladderProgram(t, 8)
	spec := Spec{
		Entry:  0,
		Kind:   KindMultipath,
		Blocks: []BlockSpec{blockSpec(p, 0), blockSpec(p, 2), blockSpec(p, 4)},
		Succs:  [][]int{{1, 2}, {2}, {0}},
	}
	c := New(p)
	r, err := c.Insert(spec)
	if err != nil {
		t.Fatal(err)
	}
	succs := &r.Succs[0][0]
	allocs := testing.AllocsPerRun(100, func() {
		c.Reset(p, 0)
		if _, err := c.Insert(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("pooled multipath insert allocated %.1f times, want 0", allocs)
	}
	got := c.Regions()[0]
	if got != r || &got.Succs[0][0] != succs {
		t.Fatal("re-insertion did not recycle the region and its successor lists")
	}
	if !reflect.DeepEqual(got.Succs, spec.Succs) {
		t.Errorf("recycled Succs = %v, want %v", got.Succs, spec.Succs)
	}
}

func TestBoundedCacheFlush(t *testing.T) {
	p := testProgram(t)
	single := func(start isa.Addr) Spec {
		return Spec{Entry: start, Kind: KindTrace, Blocks: []BlockSpec{blockSpec(p, start)}}
	}
	sz := func(start isa.Addr) int {
		c := New(p)
		r, err := c.Insert(single(start))
		if err != nil {
			t.Fatal(err)
		}
		return r.EstimatedBytes()
	}
	limit := sz(0) + sz(2) + 1
	c := NewBounded(p, limit)
	if _, err := c.Insert(single(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(single(2)); err != nil {
		t.Fatal(err)
	}
	if c.Flushes() != 0 {
		t.Fatalf("premature flush")
	}
	if _, err := c.Insert(single(4)); err != nil {
		t.Fatal(err)
	}
	if c.Flushes() != 1 {
		t.Errorf("flushes = %d, want 1", c.Flushes())
	}
	// Old entries are gone; the new region is present.
	if c.HasEntry(0) || c.HasEntry(2) || !c.HasEntry(4) {
		t.Error("entries after flush wrong")
	}
	// Cumulative accounting includes evicted regions.
	if c.NumRegions() != 3 {
		t.Errorf("NumRegions = %d, want 3", c.NumRegions())
	}
	all := c.AllRegions()
	if len(all) != 3 {
		t.Fatalf("AllRegions = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].SelectedSeq >= all[i].SelectedSeq {
			t.Error("AllRegions not in selection order")
		}
	}
	if c.TotalInstrs() != 2+2+2 {
		t.Errorf("TotalInstrs = %d", c.TotalInstrs())
	}
}
