package core

import (
	"testing"

	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/program"
)

// leiProgram:
//
//	0: movi r1, 100      entry [0..0]
//	1: addi r1, r1, -1   A [1..2]
//	2: blt r1, r0, 9     (rarely exit)
//	3: addi r2, r2, 1    B [3..4]
//	4: call 7            (call to f: FORWARD call here)
//	5: nop               C [5..6] (return target)
//	6: jmp 1             (backward to A)
//	7: addi r3, r3, 1    f [7..8]
//	8: ret
//	9: halt              [9]
func leiProgram(t *testing.T) *program.Program {
	t.Helper()
	ins := []isa.Instr{
		{Op: isa.MovImm, Dst: 1, Imm: 100},
		{Op: isa.AddImm, Dst: 1, SrcA: 1, Imm: -1},
		{Op: isa.Br, Cond: isa.CondLt, SrcA: 1, SrcB: 0, Target: 9},
		{Op: isa.AddImm, Dst: 2, SrcA: 2, Imm: 1},
		{Op: isa.Call, Target: 7},
		{Op: isa.Nop},
		{Op: isa.Jmp, Target: 1},
		{Op: isa.AddImm, Dst: 3, SrcA: 3, Imm: 1},
		{Op: isa.Ret},
		{Op: isa.Halt},
	}
	p, err := program.New(ins, []program.Function{{Name: "f", Entry: 7, End: 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLeiCycleConditions(t *testing.T) {
	t.Run("backward qualifies", func(t *testing.T) {
		buf := profile.NewHistoryBuffer(16)
		s := buf.Insert(6, 1, profile.KindInterp)
		buf.SetHash(1, s)
		old, ok := leiCycle(buf, 6, 1, profile.KindInterp, false)
		if !ok || old != s {
			t.Errorf("backward cycle: %d, %v", old, ok)
		}
	})
	t.Run("forward with interp old does not qualify", func(t *testing.T) {
		buf := profile.NewHistoryBuffer(16)
		s := buf.Insert(2, 5, profile.KindInterp)
		buf.SetHash(5, s)
		if _, ok := leiCycle(buf, 2, 5, profile.KindInterp, false); ok {
			t.Error("forward cycle with interp old must not qualify")
		}
	})
	t.Run("old exit entry qualifies", func(t *testing.T) {
		buf := profile.NewHistoryBuffer(16)
		s := buf.Insert(8, 5, profile.KindExit) // previous exit to 5
		buf.SetHash(5, s)
		old, ok := leiCycle(buf, 2, 5, profile.KindExit, false)
		if !ok || old != s {
			t.Errorf("exit-grown cycle: %d, %v", old, ok)
		}
	})
	t.Run("no previous occurrence", func(t *testing.T) {
		buf := profile.NewHistoryBuffer(16)
		if _, ok := leiCycle(buf, 6, 1, profile.KindInterp, false); ok {
			t.Error("first occurrence cannot complete a cycle")
		}
	})
}

func TestFormLEITraceInterproceduralCycle(t *testing.T) {
	p := leiProgram(t)
	env := newFakeEnv(t, p)
	buf := profile.NewHistoryBuffer(32)
	// Previous occurrence of A's header as a branch target.
	old := buf.Insert(6, 1, profile.KindInterp)
	// One full loop iteration: A falls to B, B calls f, f returns to C,
	// C jumps back to A.
	buf.Insert(4, 7, profile.KindInterp) // call -> f
	buf.Insert(8, 5, profile.KindInterp) // ret -> C
	buf.Insert(6, 1, profile.KindInterp) // jmp -> A (completes the cycle)
	spec, outcomes, formed := formLEITrace(p, env.cache, buf, 1, old, DefaultParams(), nil)
	if !formed {
		t.Fatal("trace not formed")
	}
	if !spec.Cyclic {
		t.Error("interprocedural cycle should be spanned")
	}
	want := []isa.Addr{1, 3, 7, 5}
	if len(spec.Blocks) != len(want) {
		t.Fatalf("blocks = %+v, want starts %v", spec.Blocks, want)
	}
	for i, w := range want {
		if spec.Blocks[i].Start != w {
			t.Fatalf("blocks = %+v, want starts %v", spec.Blocks, want)
		}
	}
	// Outcomes: not-taken at 2, call at 4, ret at 8 (indirect), jmp at 6.
	if len(outcomes) != 4 {
		t.Fatalf("outcomes = %+v", outcomes)
	}
	if outcomes[0].taken || outcomes[0].addr != 2 {
		t.Errorf("outcome[0] = %+v", outcomes[0])
	}
	if !outcomes[2].indirect {
		t.Errorf("return outcome not indirect: %+v", outcomes[2])
	}
}

func TestFormLEITraceStopsAtCachedRegion(t *testing.T) {
	p := leiProgram(t)
	env := newFakeEnv(t, p)
	// Cache block B (start 3) as an existing trace.
	if _, err := env.cache.Insert(codecache.Spec{
		Entry:  3,
		Kind:   codecache.KindTrace,
		Blocks: []codecache.BlockSpec{{Start: 3, Len: p.BlockLen(3)}},
	}); err != nil {
		t.Fatal(err)
	}
	buf := profile.NewHistoryBuffer(32)
	old := buf.Insert(6, 1, profile.KindInterp)
	buf.Insert(4, 7, profile.KindInterp)
	buf.Insert(8, 5, profile.KindInterp)
	buf.Insert(6, 1, profile.KindInterp)
	spec, _, formed := formLEITrace(p, env.cache, buf, 1, old, DefaultParams(), nil)
	if !formed {
		t.Fatal("trace not formed")
	}
	// The fall-through from A into B stops at the cached B: only A remains.
	if len(spec.Blocks) != 1 || spec.Blocks[0].Start != 1 {
		t.Errorf("blocks = %+v", spec.Blocks)
	}
	if spec.Cyclic {
		t.Error("truncated trace cannot be cyclic")
	}
}

func TestFormLEITraceWithCacheEpisode(t *testing.T) {
	p := leiProgram(t)
	env := newFakeEnv(t, p)
	// Region for f exists; the cycle passes through it.
	if _, err := env.cache.Insert(codecache.Spec{
		Entry:  7,
		Kind:   codecache.KindTrace,
		Blocks: []codecache.BlockSpec{{Start: 7, Len: p.BlockLen(7)}},
	}); err != nil {
		t.Fatal(err)
	}
	buf := profile.NewHistoryBuffer(32)
	old := buf.Insert(6, 1, profile.KindInterp)
	buf.Insert(4, 7, profile.KindEnter) // call enters the cached f
	buf.Insert(8, 5, profile.KindExit)  // f's return exits the cache to C
	buf.Insert(6, 1, profile.KindInterp)
	spec, _, formed := formLEITrace(p, env.cache, buf, 1, old, DefaultParams(), nil)
	if !formed {
		t.Fatal("trace not formed")
	}
	// Reconstruction covers A,B (up to the enter), then stops at cached f.
	want := []isa.Addr{1, 3}
	if len(spec.Blocks) != len(want) || spec.Blocks[0].Start != 1 || spec.Blocks[1].Start != 3 {
		t.Errorf("blocks = %+v, want starts %v", spec.Blocks, want)
	}
}

func TestFormLEITraceExitGrownHead(t *testing.T) {
	p := leiProgram(t)
	env := newFakeEnv(t, p)
	// Inner region covers A (1) alone; traces grow from its exit at B.
	if _, err := env.cache.Insert(codecache.Spec{
		Entry:  1,
		Kind:   codecache.KindTrace,
		Blocks: []codecache.BlockSpec{{Start: 1, Len: p.BlockLen(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	buf := profile.NewHistoryBuffer(32)
	old := buf.Insert(2, 3, profile.KindExit) // exit to B
	buf.Insert(4, 7, profile.KindInterp)      // B calls f
	buf.Insert(8, 5, profile.KindInterp)      // return to C
	buf.Insert(6, 1, profile.KindEnter)       // C jumps to cached A
	buf.Insert(2, 3, profile.KindExit)        // A's trace exits to B again
	spec, _, formed := formLEITrace(p, env.cache, buf, 3, old, DefaultParams(), nil)
	if !formed {
		t.Fatal("trace not formed")
	}
	// B, f, C selected; stops at cached A. This is the paper's §2.2
	// walkthrough shape: the second trace grows from the first's exit and
	// ends where the cached region begins.
	want := []isa.Addr{3, 7, 5}
	if len(spec.Blocks) != len(want) {
		t.Fatalf("blocks = %+v, want starts %v", spec.Blocks, want)
	}
	for i, w := range want {
		if spec.Blocks[i].Start != w {
			t.Fatalf("blocks = %+v, want starts %v", spec.Blocks, want)
		}
	}
}

func TestFormLEITraceEmptyWhenHeadUnreachable(t *testing.T) {
	p := leiProgram(t)
	env := newFakeEnv(t, p)
	// Head itself cached: nothing can be formed.
	if _, err := env.cache.Insert(codecache.Spec{
		Entry:  1,
		Kind:   codecache.KindTrace,
		Blocks: []codecache.BlockSpec{{Start: 1, Len: p.BlockLen(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	buf := profile.NewHistoryBuffer(32)
	old := buf.Insert(6, 1, profile.KindInterp)
	buf.Insert(6, 1, profile.KindInterp)
	if _, _, formed := formLEITrace(p, env.cache, buf, 1, old, DefaultParams(), nil); formed {
		t.Error("trace formed from a cached head")
	}
}

func TestLEISelectorEndToEnd(t *testing.T) {
	p := leiProgram(t)
	env := newFakeEnv(t, p)
	params := DefaultParams()
	params.LEIThreshold = 3
	l := NewLEI(params)
	iteration := func() {
		l.Transfer(env, Event{Src: 4, Tgt: 7, Taken: true})
		l.Transfer(env, Event{Src: 8, Tgt: 5, Taken: true})
		l.Transfer(env, Event{Src: 6, Tgt: 1, Taken: true})
	}
	// Threshold 3: cycles complete on iterations 2,3,4.
	for i := 0; i < 4; i++ {
		iteration()
	}
	if got := env.cache.NumRegions(); got != 1 {
		t.Fatalf("regions = %d, want 1", got)
	}
	// Two backward-branch targets exist in the cycle (the return target C
	// at 5, since f lies above its call site, and the loop header A at 1);
	// C's counter reaches the threshold first within an iteration, so the
	// cycle is selected rotated to start at C. Either rotation spans the
	// full interprocedural cycle.
	r := env.cache.Regions()[0]
	if r.Entry != 5 || !r.Cyclic {
		t.Errorf("region = entry %d cyclic %v", r.Entry, r.Cyclic)
	}
	want := []isa.Addr{5, 1, 3, 7}
	if len(r.Blocks) != len(want) {
		t.Fatalf("blocks = %+v", r.Blocks)
	}
	for i, w := range want {
		if r.Blocks[i].Start != w {
			t.Fatalf("blocks = %+v, want starts %v", r.Blocks, want)
		}
	}
	// C's counter was recycled on selection; A's counter (2 counts) stays.
	if l.counters.Live() != 1 || l.counters.Get(5) != 0 || l.counters.Get(1) != 2 {
		t.Errorf("counters live=%d c5=%d c1=%d", l.counters.Live(), l.counters.Get(5), l.counters.Get(1))
	}
	if l.Stats().HistoryCap != params.HistoryCap {
		t.Errorf("stats = %+v", l.Stats())
	}
}

func TestLEIIgnoresToCacheAndFallThrough(t *testing.T) {
	p := leiProgram(t)
	env := newFakeEnv(t, p)
	l := NewLEI(DefaultParams())
	l.Transfer(env, Event{Src: 2, Tgt: 3, Taken: false})
	if l.buf.Len() != 0 {
		t.Error("fall-through inserted into buffer")
	}
	l.Transfer(env, Event{Src: 6, Tgt: 1, Taken: true, ToCache: true})
	if l.buf.Len() != 1 {
		t.Fatal("enter transfer not recorded")
	}
	if l.buf.At(l.buf.Last()).Kind != profile.KindEnter {
		t.Error("enter transfer recorded with wrong kind")
	}
	// Enter entries never receive hash references, so they cannot complete
	// cycles.
	l.Transfer(env, Event{Src: 6, Tgt: 1, Taken: true, ToCache: true})
	if env.cache.NumRegions() != 0 || l.counters.Live() != 0 {
		t.Error("enter transfers must not profile")
	}
}
