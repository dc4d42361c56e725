package core_test

import (
	"testing"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/program"
)

// storeProgram has blocks A[0,1] B[2,3] C[4] D[5,6] E[7] F[8,9] G[10,11]
// H[12]: a conditional at A (to C), a jump at B (to D), a conditional at D
// (to F), a non-branch end at E, an indirect jump at F, and a backward
// conditional at G (to A).
func storeProgram(t *testing.T) *program.Program {
	t.Helper()
	p, err := program.New([]isa.Instr{
		{Op: isa.MovImm, Dst: 1, Imm: 1},
		{Op: isa.Br, Cond: isa.CondEq, SrcA: 1, SrcB: 0, Target: 4},
		{Op: isa.Nop},
		{Op: isa.Jmp, Target: 5},
		{Op: isa.Nop},
		{Op: isa.AddImm, Dst: 2, SrcA: 2, Imm: 1},
		{Op: isa.Br, Cond: isa.CondGt, SrcA: 2, SrcB: 0, Target: 8},
		{Op: isa.Nop},
		{Op: isa.Nop},
		{Op: isa.JmpInd, SrcA: 3},
		{Op: isa.Nop},
		{Op: isa.Br, Cond: isa.CondGt, SrcA: 2, SrcB: 0, Target: 0},
		{Op: isa.Halt},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCombinerStoresRecordedPaths pins what the Combiner keeps of an
// observed trace against the frozen Figure 14 codec: for paths recorded by
// the NET tail recorder and by LEI trace formation, ending in each way a
// recording can end, the stored blocks, closing transfer and byte count
// must equal what encoding the outcomes and decoding them again yields.
func TestCombinerStoresRecordedPaths(t *testing.T) {
	p := storeProgram(t)
	taken := func(src, tgt isa.Addr) core.Event { return core.Event{Src: src, Tgt: tgt, Taken: true} }
	fall := func(src, tgt isa.Addr) core.Event { return core.Event{Src: src, Tgt: tgt} }
	// A -> C -> D -> E -> F, with the indirect jump at F still to come.
	toF := []core.Event{taken(1, 4), fall(4, 5), fall(6, 7), fall(7, 8)}
	net := func(maxInstrs, maxBlocks int, evs ...core.Event) func(t *testing.T) ([]codecache.BlockSpec, []core.Outcome) {
		return func(t *testing.T) ([]codecache.BlockSpec, []core.Outcome) {
			blocks, outcomes, done := core.RecordTail(p, 0, maxInstrs, maxBlocks, evs)
			if !done {
				t.Fatal("recording did not complete")
			}
			return blocks, outcomes
		}
	}
	// lei forms the trace for A from the history A -> C, F -> G (indirect),
	// G -> A, over a cache holding the given entries.
	lei := func(cached ...isa.Addr) func(t *testing.T) ([]codecache.BlockSpec, []core.Outcome) {
		return func(t *testing.T) ([]codecache.BlockSpec, []core.Outcome) {
			cache := codecache.New(p)
			for _, e := range cached {
				if _, err := cache.Insert(codecache.Spec{Entry: e, Kind: codecache.KindTrace, Blocks: []codecache.BlockSpec{{Start: e, Len: p.BlockLen(e)}}}); err != nil {
					t.Fatal(err)
				}
			}
			buf := profile.NewHistoryBuffer(16)
			old := buf.Insert(11, 0, profile.KindInterp)
			buf.Insert(1, 4, profile.KindInterp)
			buf.Insert(9, 10, profile.KindInterp)
			buf.Insert(11, 0, profile.KindInterp)
			blocks, outcomes, formed := core.FormObservedLEI(p, cache, buf, 0, old)
			if !formed {
				t.Fatal("no trace formed")
			}
			return blocks, outcomes
		}
	}
	cases := []struct {
		name    string
		record  func(t *testing.T) ([]codecache.BlockSpec, []core.Outcome)
		closing bool // the path ends with a taken branch
	}{
		{"NET backward branch to head", net(1000, 100, append(toF, taken(9, 10), taken(11, 0))...), true},
		{"LEI backward branch to head", lei(), true},
		{"NET taken branch into cached entry", net(1000, 100, fall(1, 2), core.Event{Src: 3, Tgt: 5, Taken: true, ToCache: true}), true},
		{"LEI not-taken conditional before cached entry", lei(7), false},
		{"NET not-taken conditional at size limit", net(1000, 3, taken(1, 4), fall(4, 5), fall(6, 7)), false},
		{"NET non-branch block end at size limit", net(1000, 4, toF...), false},
		{"NET non-branch block end after a taken branch", net(1000, 2, taken(1, 4), fall(4, 5)), false},
		{"NET indirect taken branch backward", net(1000, 100, append(toF, taken(9, 2))...), true},
		{"NET taken branch at instruction limit", net(2, 100, taken(1, 4)), true},
		{"NET taken branch at block limit", net(1000, 1, taken(1, 4)), true},
	}
	// One combiner stores every case, so spans sit at non-zero arena offsets.
	c := core.NewCombiner(core.BaseNET, core.DefaultParams())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blocks, outcomes := tc.record(t)
			last := blocks[len(blocks)-1]
			branches := make([]difftest.RefBranch, len(outcomes))
			for i, o := range outcomes {
				branches[i] = difftest.RefBranch(o)
			}
			want, wantClosing, wantHas, wantBytes, err := difftest.RefObservedTrace(p, 0, branches, last.Start+isa.Addr(last.Len)-1)
			if err != nil {
				t.Fatalf("reference decode: %v", err)
			}
			got, closing, has, bytes := c.StoreObserved(0, blocks, outcomes)
			if !sameBlocks(got, want) {
				t.Errorf("stored blocks %v, decoded %v", got, want)
			}
			if has != wantHas || closing != wantClosing {
				t.Errorf("closing %d,%v, decoded %d,%v", closing, has, wantClosing, wantHas)
			}
			if has != tc.closing {
				t.Errorf("closing %v, want %v for this ending (outcomes %+v)", has, tc.closing, outcomes)
			}
			if bytes != wantBytes {
				t.Errorf("charged %d bytes, encoding is %d", bytes, wantBytes)
			}
		})
	}
}

func sameBlocks(a, b []codecache.BlockSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
