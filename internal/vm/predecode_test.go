package vm

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workloads"
)

// referenceRun is the seed interpreter kept verbatim as an executable
// specification: a per-step fetch from the Program with a switch dispatch
// and per-branch validation, reporting each taken branch to sink. The
// predecoded dispatch loop in Run must produce the identical taken-branch
// stream, statistics, and error for any program.
func referenceRun(m *Machine, sink func(src, tgt isa.Addr, kind BranchKind)) (Stats, error) {
	var st Stats
	pc := m.prog.Entry()
	p := m.prog
	branch := func(src, tgt isa.Addr, kind BranchKind) error {
		if !p.InRange(tgt) {
			return fmt.Errorf("%w: %d -> %d", ErrBadTarget, src, tgt)
		}
		if !p.IsBlockStart(tgt) {
			return fmt.Errorf("%w: %d -> %d", ErrNotLeader, src, tgt)
		}
		st.Branches++
		if sink != nil {
			sink(src, tgt, kind)
		}
		return nil
	}
	dynTarget := func(pc isa.Addr, v int64) (isa.Addr, error) {
		if v < 0 || !p.InRange(isa.Addr(v)) {
			return 0, fmt.Errorf("%w: at %d, computed %d", ErrBadTarget, pc, v)
		}
		return isa.Addr(v), nil
	}
	for {
		if st.Instrs >= m.cfg.MaxInstrs {
			return st, fmt.Errorf("%w after %d instructions at %d", ErrMaxInstrs, st.Instrs, pc)
		}
		if !p.InRange(pc) {
			return st, fmt.Errorf("%w: fetch at %d", ErrBadTarget, pc)
		}
		in := p.At(pc)
		st.Instrs++
		next := pc + 1
		switch in.Op {
		case isa.Nop:
		case isa.Halt:
			st.FinalPC = pc
			return st, nil
		case isa.MovImm:
			m.regs[in.Dst] = in.Imm
		case isa.Mov:
			m.regs[in.Dst] = m.regs[in.SrcA]
		case isa.Add:
			m.regs[in.Dst] = m.regs[in.SrcA] + m.regs[in.SrcB]
		case isa.AddImm:
			m.regs[in.Dst] = m.regs[in.SrcA] + in.Imm
		case isa.Sub:
			m.regs[in.Dst] = m.regs[in.SrcA] - m.regs[in.SrcB]
		case isa.Mul:
			m.regs[in.Dst] = m.regs[in.SrcA] * m.regs[in.SrcB]
		case isa.Div:
			if d := m.regs[in.SrcB]; d != 0 {
				m.regs[in.Dst] = m.regs[in.SrcA] / d
			} else {
				m.regs[in.Dst] = 0
			}
		case isa.Rem:
			if d := m.regs[in.SrcB]; d != 0 {
				m.regs[in.Dst] = m.regs[in.SrcA] % d
			} else {
				m.regs[in.Dst] = 0
			}
		case isa.And:
			m.regs[in.Dst] = m.regs[in.SrcA] & m.regs[in.SrcB]
		case isa.Or:
			m.regs[in.Dst] = m.regs[in.SrcA] | m.regs[in.SrcB]
		case isa.Xor:
			m.regs[in.Dst] = m.regs[in.SrcA] ^ m.regs[in.SrcB]
		case isa.Shl:
			m.regs[in.Dst] = m.regs[in.SrcA] << (uint64(m.regs[in.SrcB]) & 63)
		case isa.Shr:
			m.regs[in.Dst] = int64(uint64(m.regs[in.SrcA]) >> (uint64(m.regs[in.SrcB]) & 63))
		case isa.Load:
			m.regs[in.Dst] = m.mem[m.wrap(m.regs[in.SrcA]+in.Imm)]
		case isa.Store:
			m.mem[m.wrap(m.regs[in.SrcA]+in.Imm)] = m.regs[in.SrcB]
		case isa.Jmp:
			if err := branch(pc, in.Target, KindJump); err != nil {
				return st, err
			}
			next = in.Target
		case isa.Br:
			if in.Cond.Eval(m.regs[in.SrcA], m.regs[in.SrcB]) {
				if err := branch(pc, in.Target, KindCond); err != nil {
					return st, err
				}
				next = in.Target
			}
		case isa.Call:
			if len(m.ras) >= m.cfg.MaxCallDepth {
				return st, fmt.Errorf("%w at %d", ErrCallDepth, pc)
			}
			m.ras = append(m.ras, pc+1)
			if err := branch(pc, in.Target, KindCall); err != nil {
				return st, err
			}
			next = in.Target
		case isa.CallInd:
			tgt, err := dynTarget(pc, m.regs[in.SrcA])
			if err != nil {
				return st, err
			}
			if len(m.ras) >= m.cfg.MaxCallDepth {
				return st, fmt.Errorf("%w at %d", ErrCallDepth, pc)
			}
			m.ras = append(m.ras, pc+1)
			if err := branch(pc, tgt, KindIndCall); err != nil {
				return st, err
			}
			next = tgt
		case isa.JmpInd:
			tgt, err := dynTarget(pc, m.regs[in.SrcA])
			if err != nil {
				return st, err
			}
			if err := branch(pc, tgt, KindIndJump); err != nil {
				return st, err
			}
			next = tgt
		case isa.Ret:
			if len(m.ras) == 0 {
				return st, fmt.Errorf("%w at %d", ErrUnderflow, pc)
			}
			tgt := m.ras[len(m.ras)-1]
			m.ras = m.ras[:len(m.ras)-1]
			if err := branch(pc, tgt, KindReturn); err != nil {
				return st, err
			}
			next = tgt
		default:
			return st, fmt.Errorf("vm: unknown opcode %d at %d", in.Op, pc)
		}
		pc = next
	}
}

// corpus returns a diverse set of programs: every registered workload at a
// small scale plus random structured programs.
func corpus(t *testing.T) map[string]*program.Program {
	t.Helper()
	progs := map[string]*program.Program{}
	for _, name := range workloads.Names() {
		w, _ := workloads.Get(name)
		progs["workload/"+name] = w.Build(3)
	}
	for i := 0; i < 25; i++ {
		cfg := workloads.GenConfig{
			Seed:       1000 + int64(i),
			Funcs:      i % 6,
			MaxDepth:   1 + i%4,
			Iters:      5 + i%40,
			Constructs: 1 + i%7,
		}
		progs[fmt.Sprintf("random/%d", i)] = workloads.Random(cfg)
	}
	return progs
}

// TestPredecodedMatchesReference proves the predecoded dispatch loop is
// observationally identical to the seed interpreter: the block stream
// filtered to taken branches is the reference's taken-branch stream
// (addresses and kinds), with the same statistics, error, and final
// register file, for every workload and a corpus of random structured
// programs.
func TestPredecodedMatchesReference(t *testing.T) {
	for name, p := range corpus(t) {
		t.Run(name, func(t *testing.T) {
			var want []event
			mNew := New(p, Config{})
			rec := &recorder{}
			stNew, errNew := mNew.Run(rec)
			mRef := New(p, Config{})
			stRef, errRef := referenceRun(mRef, func(src, tgt isa.Addr, kind BranchKind) {
				want = append(want, event{src, tgt, kind})
			})
			if (errNew == nil) != (errRef == nil) {
				t.Fatalf("error mismatch: predecoded %v, reference %v", errNew, errRef)
			}
			if errNew != nil && errNew.Error() != errRef.Error() {
				t.Fatalf("error text mismatch:\n predecoded %v\n reference  %v", errNew, errRef)
			}
			if stNew != stRef {
				t.Fatalf("stats mismatch: predecoded %+v, reference %+v", stNew, stRef)
			}
			got := rec.events
			if len(got) != len(want) {
				t.Fatalf("event count mismatch: predecoded %d, reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("event %d mismatch: predecoded %+v, reference %+v", i, got[i], want[i])
				}
			}
			for r := 0; r < isa.NumRegs; r++ {
				if mNew.Reg(isa.Reg(r)) != mRef.Reg(isa.Reg(r)) {
					t.Fatalf("r%d mismatch: predecoded %d, reference %d",
						r, mNew.Reg(isa.Reg(r)), mRef.Reg(isa.Reg(r)))
				}
			}
		})
	}
}

// blockRecorder collects the whole block stream.
type blockRecorder struct{ blocks []BlockEvent }

func (r *blockRecorder) BlockBatch(events []BlockEvent) {
	r.blocks = append(r.blocks, events...)
}

// TestBlockStreamMatchesBranchStream proves the block stream refines the
// taken-branch stream TestPredecodedMatchesReference checks: every event's
// Src is the final instruction of the block led by the preceding event's
// Tgt, every Tgt is a leader, and fall-throughs continue at the next
// address (fall-through boundaries resolved correctly).
func TestBlockStreamMatchesBranchStream(t *testing.T) {
	for name, p := range corpus(t) {
		t.Run(name, func(t *testing.T) {
			rec := &blockRecorder{}
			if _, err := New(p, Config{}).Run(rec); err != nil {
				t.Fatal(err)
			}
			pos := p.Entry()
			for i, ev := range rec.blocks {
				if p.BlockEnd(pos)-1 != ev.Src {
					t.Fatalf("block event %d: src %d is not the end of block led by %d", i, ev.Src, pos)
				}
				if !p.IsBlockStart(ev.Tgt) {
					t.Fatalf("block event %d: tgt %d is not a leader", i, ev.Tgt)
				}
				if !ev.Taken && ev.Tgt != ev.Src+1 {
					t.Fatalf("block event %d: fall-through to %d from %d", i, ev.Tgt, ev.Src)
				}
				pos = ev.Tgt
			}
		})
	}
}

// TestMachineLoadReuse proves a machine re-targeted with Load behaves like a
// fresh one: run program A (dirtying memory), Load program B, and the B run
// must match a fresh machine's run of B exactly.
func TestMachineLoadReuse(t *testing.T) {
	progs := corpus(t)
	a := progs["workload/gcc"]
	b := progs["workload/mcf"]
	reused := New(a, Config{})
	if _, err := reused.Run(nil); err != nil {
		t.Fatal(err)
	}
	reused.Load(b, Config{})
	gotRec, wantRec := &recorder{}, &recorder{}
	stGot, err := reused.Run(gotRec)
	if err != nil {
		t.Fatal(err)
	}
	stWant, err := New(b, Config{}).Run(wantRec)
	if err != nil {
		t.Fatal(err)
	}
	got, want := gotRec.events, wantRec.events
	if stGot != stWant {
		t.Fatalf("stats mismatch after Load: %+v vs %+v", stGot, stWant)
	}
	if len(got) != len(want) {
		t.Fatalf("event count mismatch after Load: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d mismatch after Load: %+v vs %+v", i, got[i], want[i])
		}
	}
}
