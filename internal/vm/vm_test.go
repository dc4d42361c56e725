package vm

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

type event struct {
	src, tgt isa.Addr
	kind     BranchKind
}

// recorder collects the taken-branch view of the block stream.
type recorder struct{ events []event }

func (r *recorder) BlockBatch(events []BlockEvent) {
	for _, ev := range events {
		if ev.Taken {
			r.events = append(r.events, event{ev.Src, ev.Tgt, ev.Kind})
		}
	}
}

func run(t *testing.T, p *program.Program, cfg Config) (Stats, *recorder, *Machine) {
	t.Helper()
	m := New(p, cfg)
	rec := &recorder{}
	st, err := m.Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	return st, rec, m
}

func TestArithmetic(t *testing.T) {
	b := program.NewBuilder()
	b.MovImm(1, 7)
	b.MovImm(2, 3)
	b.Add(3, 1, 2)   // 10
	b.Sub(4, 1, 2)   // 4
	b.Mul(5, 1, 2)   // 21
	b.Div(6, 1, 2)   // 2
	b.Rem(7, 1, 2)   // 1
	b.And(8, 1, 2)   // 3
	b.Or(9, 1, 2)    // 7
	b.Xor(10, 1, 2)  // 4
	b.Shl(11, 1, 2)  // 56
	b.Shr(12, 11, 2) // 7
	b.AddImm(13, 1, -10)
	b.Mov(14, 13)
	b.Halt()
	_, _, m := run(t, b.MustBuild(), Config{})
	want := map[isa.Reg]int64{3: 10, 4: 4, 5: 21, 6: 2, 7: 1, 8: 3, 9: 7, 10: 4, 11: 56, 12: 7, 13: -3, 14: -3}
	for r, w := range want {
		if got := m.Reg(r); got != w {
			t.Errorf("r%d = %d, want %d", r, got, w)
		}
	}
}

func TestDivRemByZero(t *testing.T) {
	b := program.NewBuilder()
	b.MovImm(1, 9)
	b.Div(2, 1, 0)
	b.Rem(3, 1, 0)
	b.Halt()
	_, _, m := run(t, b.MustBuild(), Config{})
	if m.Reg(2) != 0 || m.Reg(3) != 0 {
		t.Errorf("div/rem by zero = %d, %d; want 0, 0", m.Reg(2), m.Reg(3))
	}
}

func TestShiftMasking(t *testing.T) {
	b := program.NewBuilder()
	b.MovImm(1, 1)
	b.MovImm(2, 65) // 65 & 63 = 1
	b.Shl(3, 1, 2)
	b.MovImm(4, -8)
	b.MovImm(5, 1)
	b.Shr(6, 4, 5) // logical shift of two's complement
	b.Halt()
	_, _, m := run(t, b.MustBuild(), Config{})
	if m.Reg(3) != 2 {
		t.Errorf("shl with count 65 = %d, want 2", m.Reg(3))
	}
	if got := m.Reg(6); got != int64(uint64(0xFFFFFFFFFFFFFFF8)>>1) {
		t.Errorf("shr logical = %d", got)
	}
}

func TestMemory(t *testing.T) {
	b := program.NewBuilder()
	b.MovImm(1, 100)
	b.MovImm(2, 42)
	b.Store(1, 5, 2) // mem[105] = 42
	b.Load(3, 1, 5)  // r3 = mem[105]
	b.MovImm(4, -1)
	b.Store(4, 0, 2) // wraps modulo memory size
	b.Load(5, 4, 0)
	b.Halt()
	_, _, m := run(t, b.MustBuild(), Config{MemWords: 256})
	if m.Reg(3) != 42 {
		t.Errorf("load after store = %d, want 42", m.Reg(3))
	}
	if m.Reg(5) != 42 {
		t.Errorf("wrapped load = %d, want 42", m.Reg(5))
	}
	if m.Mem(105) != 42 {
		t.Errorf("Mem(105) = %d", m.Mem(105))
	}
}

func TestBranchEventStream(t *testing.T) {
	// 0: movi r1,2 / 1: label loop: addi r1,r1,-1 / 2: bgt r1,r0,loop / 3: halt
	b := program.NewBuilder()
	b.MovImm(1, 2)
	b.Label("loop")
	b.AddImm(1, 1, -1)
	b.Br(isa.CondGt, 1, 0, "loop")
	b.Halt()
	st, rec, _ := run(t, b.MustBuild(), Config{})
	// r1: 2 -> 1 (taken) -> 0 (not taken). One event.
	if len(rec.events) != 1 {
		t.Fatalf("events = %v, want exactly 1", rec.events)
	}
	if rec.events[0] != (event{src: 2, tgt: 1, kind: KindCond}) {
		t.Errorf("event = %+v", rec.events[0])
	}
	if st.Branches != 1 {
		t.Errorf("Branches = %d, want 1", st.Branches)
	}
	if st.Instrs != 1+2*2+1 {
		t.Errorf("Instrs = %d, want 6", st.Instrs)
	}
	if st.FinalPC != 3 {
		t.Errorf("FinalPC = %d, want 3", st.FinalPC)
	}
}

func TestCallReturnNesting(t *testing.T) {
	b := program.NewBuilder()
	b.Jmp("main")
	b.Func("inner")
	b.AddImm(2, 2, 1)
	b.Ret()
	b.Func("outer")
	b.Call("inner")
	b.Call("inner")
	b.Ret()
	b.Func("main")
	b.Call("outer")
	b.Halt()
	st, rec, m := run(t, b.MustBuild(), Config{})
	if m.Reg(2) != 2 {
		t.Errorf("r2 = %d, want 2", m.Reg(2))
	}
	var kinds []BranchKind
	for _, e := range rec.events {
		kinds = append(kinds, e.kind)
	}
	want := []BranchKind{KindJump, KindCall, KindCall, KindReturn, KindCall, KindReturn, KindReturn}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if st.Branches != uint64(len(want)) {
		t.Errorf("Branches = %d", st.Branches)
	}
}

func TestIndirectJumpTable(t *testing.T) {
	b := program.NewBuilder()
	b.MovLabel(1, "case1")
	b.JmpInd(1)
	b.Label("case0")
	b.MovImm(2, 100)
	b.Halt()
	b.Label("case1")
	b.MovImm(2, 200)
	b.Halt()
	_, rec, m := run(t, b.MustBuild(), Config{})
	if m.Reg(2) != 200 {
		t.Errorf("r2 = %d, want 200", m.Reg(2))
	}
	if len(rec.events) != 1 || rec.events[0].kind != KindIndJump {
		t.Errorf("events = %+v", rec.events)
	}
}

func TestIndirectCall(t *testing.T) {
	b := program.NewBuilder()
	b.Jmp("main")
	b.Func("callee")
	b.MovImm(2, 5)
	b.Ret()
	b.Func("main")
	b.MovLabel(1, "callee")
	b.CallInd(1)
	b.Halt()
	_, rec, m := run(t, b.MustBuild(), Config{})
	if m.Reg(2) != 5 {
		t.Errorf("r2 = %d, want 5", m.Reg(2))
	}
	found := false
	for _, e := range rec.events {
		if e.kind == KindIndCall {
			found = true
		}
	}
	if !found {
		t.Errorf("no indirect call event in %+v", rec.events)
	}
}

func TestErrReturnUnderflow(t *testing.T) {
	b := program.NewBuilder()
	b.Ret()
	b.Halt()
	_, err := Run(b.MustBuild(), Config{}, nil)
	if !errors.Is(err, ErrUnderflow) {
		t.Errorf("err = %v, want ErrUnderflow", err)
	}
}

func TestErrCallDepth(t *testing.T) {
	b := program.NewBuilder()
	b.Func("rec")
	b.Call("rec")
	b.Halt()
	_, err := Run(b.MustBuild(), Config{MaxCallDepth: 16}, nil)
	if !errors.Is(err, ErrCallDepth) {
		t.Errorf("err = %v, want ErrCallDepth", err)
	}
}

func TestErrMaxInstrs(t *testing.T) {
	b := program.NewBuilder()
	b.Label("spin")
	b.Jmp("spin")
	b.Halt()
	_, err := Run(b.MustBuild(), Config{MaxInstrs: 100}, nil)
	if !errors.Is(err, ErrMaxInstrs) {
		t.Errorf("err = %v, want ErrMaxInstrs", err)
	}
}

func TestErrBadIndirectTarget(t *testing.T) {
	b := program.NewBuilder()
	b.MovImm(1, 1_000_000)
	b.JmpInd(1)
	b.Halt()
	_, err := Run(b.MustBuild(), Config{}, nil)
	if !errors.Is(err, ErrBadTarget) {
		t.Errorf("err = %v, want ErrBadTarget", err)
	}
	// Negative computed target.
	b2 := program.NewBuilder()
	b2.MovImm(1, -4)
	b2.JmpInd(1)
	b2.Halt()
	if _, err := Run(b2.MustBuild(), Config{}, nil); !errors.Is(err, ErrBadTarget) {
		t.Errorf("err = %v, want ErrBadTarget", err)
	}
}

func TestErrIndirectNonLeader(t *testing.T) {
	// A mid-block address is not a leader: an indirect jump there is a
	// workload bug the VM must catch.
	b := program.NewBuilder()
	b.Nop()
	b.Nop()
	b.JmpInd(1)
	b.Halt()
	p := b.MustBuild()
	m := New(p, Config{})
	m.SetReg(1, 1) // address 1 is inside the entry block
	_, err := m.Run(nil)
	if !errors.Is(err, ErrNotLeader) {
		t.Errorf("err = %v, want ErrNotLeader", err)
	}
}

func TestDeterminismAndReset(t *testing.T) {
	b := program.NewBuilder()
	b.MovImm(1, 1000)
	b.MovImm(2, 12345)
	b.Label("loop")
	b.MovImm(3, 6364136223846793005)
	b.Mul(2, 2, 3)
	b.AddImm(2, 2, 1442695040888963407)
	b.MovImm(3, 40)
	b.Shr(4, 2, 3)
	b.MovImm(5, 255)
	b.And(4, 4, 5)
	b.MovImm(5, 128)
	b.Br(isa.CondLt, 4, 5, "skip")
	b.AddImm(6, 6, 1)
	b.Label("skip")
	b.AddImm(1, 1, -1)
	b.Br(isa.CondGt, 1, 0, "loop")
	b.Halt()
	p := b.MustBuild()
	m := New(p, Config{})
	st1, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	taken1 := m.Reg(6)
	m.Reset()
	st2, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 || taken1 != m.Reg(6) {
		t.Errorf("non-deterministic: %+v vs %+v (r6 %d vs %d)", st1, st2, taken1, m.Reg(6))
	}
	if taken1 == 0 || taken1 == 1000 {
		t.Errorf("LCG branch never varied: taken=%d/1000", taken1)
	}
}
