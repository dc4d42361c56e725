package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/vm"
)

// tailProgram:
//
//	0: movi r1, 9       A [0..1]
//	1: blt r1, r0, 6    (rarely to D)
//	2: addi r2, r2, 1   B [2..3]
//	3: jmp 4
//	4: addi r2, r2, 2   C [4..5]
//	5: bgt r1, r0, 0    (backward to A)
//	6: nop              D [6..7]
//	7: halt
func tailProgram(t *testing.T) *program.Program {
	t.Helper()
	ins := []isa.Instr{
		{Op: isa.MovImm, Dst: 1, Imm: 9},
		{Op: isa.Br, Cond: isa.CondLt, SrcA: 1, SrcB: 0, Target: 6},
		{Op: isa.AddImm, Dst: 2, SrcA: 2, Imm: 1},
		{Op: isa.Jmp, Target: 4},
		{Op: isa.AddImm, Dst: 2, SrcA: 2, Imm: 2},
		{Op: isa.Br, Cond: isa.CondGt, SrcA: 1, SrcB: 0, Target: 0},
		{Op: isa.Nop},
		{Op: isa.Halt},
	}
	p, err := program.New(ins, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func feed(r *tailRecorder, evs ...Event) bool {
	done := false
	for _, ev := range evs {
		done = r.feed(ev)
	}
	return done
}

func TestTailRecorderCyclic(t *testing.T) {
	p := tailProgram(t)
	r := newTailRecorder(p, 0, 1024, 128)
	// Path: A (fall) B (jmp) C (backward taken to A) => cyclic trace A,B,C.
	done := feed(r,
		Event{Src: 1, Tgt: 2, Taken: false},
		Event{Src: 3, Tgt: 4, Taken: true, Kind: vm.KindJump},
		Event{Src: 5, Tgt: 0, Taken: true, Kind: vm.KindCond},
	)
	if !done {
		t.Fatal("recorder not done after backward branch")
	}
	spec := r.spec()
	if !spec.Cyclic {
		t.Error("trace should be cyclic")
	}
	want := []isa.Addr{0, 2, 4}
	if len(spec.Blocks) != len(want) {
		t.Fatalf("blocks = %+v", spec.Blocks)
	}
	for i, w := range want {
		if spec.Blocks[i].Start != w {
			t.Fatalf("blocks = %+v", spec.Blocks)
		}
	}
	// Branch outcomes recorded for the observed-trace accounting: not-taken at 1,
	// taken at 3, taken at 5.
	if len(r.branches) != 3 || r.branches[0].taken || !r.branches[1].taken || !r.branches[2].taken {
		t.Errorf("branches = %+v", r.branches)
	}
	if r.lastAddr != 5 {
		t.Errorf("lastAddr = %d", r.lastAddr)
	}
}

func TestTailRecorderEndsAtBackwardNonHead(t *testing.T) {
	p := tailProgram(t)
	// Start at B: the backward branch to A ends the trace but is not a
	// cycle (A is not the head).
	r := newTailRecorder(p, 2, 1024, 128)
	done := feed(r,
		Event{Src: 3, Tgt: 4, Taken: true, Kind: vm.KindJump},
		Event{Src: 5, Tgt: 0, Taken: true, Kind: vm.KindCond},
	)
	if !done {
		t.Fatal("not done")
	}
	if r.spec().Cyclic {
		t.Error("backward branch to non-head must not mark cyclic")
	}
	if len(r.spec().Blocks) != 2 {
		t.Errorf("blocks = %+v", r.spec().Blocks)
	}
}

func TestTailRecorderEndsAtCache(t *testing.T) {
	p := tailProgram(t)
	r := newTailRecorder(p, 0, 1024, 128)
	done := feed(r,
		Event{Src: 1, Tgt: 2, Taken: false},
		// Taken branch to an existing region entry ends the trace.
		Event{Src: 3, Tgt: 4, Taken: true, ToCache: true},
	)
	if !done {
		t.Fatal("not done at cache entry")
	}
	spec := r.spec()
	if len(spec.Blocks) != 2 || spec.Blocks[1].Start != 2 {
		t.Errorf("blocks = %+v", spec.Blocks)
	}
	if spec.Cyclic {
		t.Error("not cyclic")
	}
}

func TestTailRecorderFallThroughCacheContinues(t *testing.T) {
	p := tailProgram(t)
	r := newTailRecorder(p, 0, 1024, 128)
	// NET only ends a trace at TAKEN branches: a fall-through into a
	// cached block keeps recording (and duplicates that block).
	done := feed(r, Event{Src: 1, Tgt: 2, Taken: false, ToCache: true})
	if done {
		t.Fatal("fall-through into cached block must not end the trace")
	}
	if len(r.blocks) != 2 {
		t.Errorf("blocks = %+v", r.blocks)
	}
}

func TestTailRecorderSizeLimits(t *testing.T) {
	p := tailProgram(t)
	r := newTailRecorder(p, 0, 3, 128) // A has 2 instrs; B would exceed 3
	done := feed(r, Event{Src: 1, Tgt: 2, Taken: false})
	if !done {
		t.Fatal("not done at instr limit")
	}
	if len(r.spec().Blocks) != 1 {
		t.Errorf("blocks = %+v", r.spec().Blocks)
	}

	r2 := newTailRecorder(p, 0, 1024, 1)
	if !feed(r2, Event{Src: 1, Tgt: 2, Taken: false}) {
		t.Fatal("not done at block limit")
	}
}

func TestTailRecorderStopsOnRevisit(t *testing.T) {
	p := tailProgram(t)
	r := newTailRecorder(p, 2, 1024, 128)
	// B -> C, then a (hypothetical) forward-taken event back to C would
	// duplicate; the recorder must stop instead.
	feed(r, Event{Src: 3, Tgt: 4, Taken: true})
	done := feed(r, Event{Src: 5, Tgt: 4, Taken: true})
	if !done {
		t.Fatal("revisit did not end trace")
	}
	if len(r.spec().Blocks) != 2 {
		t.Errorf("blocks = %+v", r.spec().Blocks)
	}
}
