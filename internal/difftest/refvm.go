package difftest

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/vm"
)

// RefMachine is the frozen instruction-at-a-time interpreter: the
// predecoded dispatch loop vm.Machine.Run had before it ran straight-line
// segments, kept as the oracle for the VM. Every step checks the
// instruction budget, counts the instruction, and tests the ends-block flag
// for a fall-through event; every register index is bounds-checked and
// every return target's leader status is looked up in the program. The
// block-event stream (fall-throughs included), Stats, error text, final
// registers and final memory of vm.Machine must match it for every program
// and budget.
type RefMachine struct {
	prog  *program.Program
	cfg   vm.Config
	regs  [isa.NumRegs]int64
	mem   []int64
	ras   []isa.Addr
	code  []refInstr
	batch []vm.BlockEvent
}

// refInstr is one predecoded instruction, as vm's pInstr was when the
// reference was frozen.
type refInstr struct {
	op     isa.Opcode
	cond   isa.Cond
	dst    isa.Reg
	srcA   isa.Reg
	srcB   isa.Reg
	kind   vm.BranchKind
	flags  uint8
	target isa.Addr
	imm    int64
}

const (
	refEndsBlock  uint8      = 1
	refOpPastEnd  isa.Opcode = 0xFF
	refBatchCap              = 1024
	refMemWords              = 1 << 20
	refMaxInstrs             = 1 << 32
	refMaxCallDep            = 1 << 16
)

// NewRefMachine predecodes p for a reference run under cfg, with vm.Config's
// defaults for its zero fields.
func NewRefMachine(p *program.Program, cfg vm.Config) *RefMachine {
	if cfg.MemWords == 0 {
		cfg.MemWords = refMemWords
	}
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = refMaxInstrs
	}
	if cfg.MaxCallDepth == 0 {
		cfg.MaxCallDepth = refMaxCallDep
	}
	m := &RefMachine{prog: p, cfg: cfg, mem: make([]int64, cfg.MemWords)}
	n := p.Len()
	m.code = make([]refInstr, n+1)
	for a := 0; a < n; a++ {
		in := p.At(isa.Addr(a))
		ri := refInstr{op: in.Op, cond: in.Cond, dst: in.Dst, srcA: in.SrcA, srcB: in.SrcB, imm: in.Imm, target: in.Target}
		switch in.Op {
		case isa.Jmp:
			ri.kind = vm.KindJump
		case isa.Br:
			ri.kind = vm.KindCond
		case isa.Call:
			ri.kind = vm.KindCall
		case isa.CallInd:
			ri.kind = vm.KindIndCall
		case isa.JmpInd:
			ri.kind = vm.KindIndJump
		case isa.Ret:
			ri.kind = vm.KindReturn
		}
		if a+1 >= n || p.IsBlockStart(isa.Addr(a+1)) {
			ri.flags |= refEndsBlock
		}
		m.code[a] = ri
	}
	m.code[n] = refInstr{op: refOpPastEnd}
	return m
}

// Reg returns the current value of a register.
func (m *RefMachine) Reg(r isa.Reg) int64 { return m.regs[r] }

// SetReg sets a register before a run.
func (m *RefMachine) SetReg(r isa.Reg, v int64) { m.regs[r] = v }

// Mem returns the word at index i modulo the memory size.
func (m *RefMachine) Mem(i int64) int64 { return m.mem[m.wrap(i)] }

func (m *RefMachine) wrap(i int64) int64 {
	n := int64(len(m.mem))
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Run interprets the program from its entry until Halt, streaming batched
// block events to sink, exactly as vm.Machine.Run did when it dispatched
// one instruction per loop iteration.
func (m *RefMachine) Run(sink vm.BlockSink) (vm.Stats, error) {
	var st vm.Stats
	pc := m.prog.Entry()
	code := m.code
	progLen := len(code) - 1
	maxInstrs := m.cfg.MaxInstrs
	maxDepth := m.cfg.MaxCallDepth
	if sink != nil && cap(m.batch) == 0 {
		m.batch = make([]vm.BlockEvent, 0, refBatchCap)
	}
	batch := m.batch[:0]
	for {
		if st.Instrs >= maxInstrs {
			m.finishBatch(sink, batch)
			return st, fmt.Errorf("%w after %d instructions at %d", vm.ErrMaxInstrs, st.Instrs, pc)
		}
		in := &code[pc]
		st.Instrs++
		next := pc + 1
		var tgt isa.Addr
		taken := false
		switch in.op {
		case isa.Nop:
		case isa.Halt:
			st.FinalPC = pc
			m.finishBatch(sink, batch)
			return st, nil
		case isa.MovImm:
			m.regs[in.dst] = in.imm
		case isa.Mov:
			m.regs[in.dst] = m.regs[in.srcA]
		case isa.Add:
			m.regs[in.dst] = m.regs[in.srcA] + m.regs[in.srcB]
		case isa.AddImm:
			m.regs[in.dst] = m.regs[in.srcA] + in.imm
		case isa.Sub:
			m.regs[in.dst] = m.regs[in.srcA] - m.regs[in.srcB]
		case isa.Mul:
			m.regs[in.dst] = m.regs[in.srcA] * m.regs[in.srcB]
		case isa.Div:
			if d := m.regs[in.srcB]; d != 0 {
				m.regs[in.dst] = m.regs[in.srcA] / d
			} else {
				m.regs[in.dst] = 0
			}
		case isa.Rem:
			if d := m.regs[in.srcB]; d != 0 {
				m.regs[in.dst] = m.regs[in.srcA] % d
			} else {
				m.regs[in.dst] = 0
			}
		case isa.And:
			m.regs[in.dst] = m.regs[in.srcA] & m.regs[in.srcB]
		case isa.Or:
			m.regs[in.dst] = m.regs[in.srcA] | m.regs[in.srcB]
		case isa.Xor:
			m.regs[in.dst] = m.regs[in.srcA] ^ m.regs[in.srcB]
		case isa.Shl:
			m.regs[in.dst] = m.regs[in.srcA] << (uint64(m.regs[in.srcB]) & 63)
		case isa.Shr:
			m.regs[in.dst] = int64(uint64(m.regs[in.srcA]) >> (uint64(m.regs[in.srcB]) & 63))
		case isa.Load:
			m.regs[in.dst] = m.mem[m.wrap(m.regs[in.srcA]+in.imm)]
		case isa.Store:
			m.mem[m.wrap(m.regs[in.srcA]+in.imm)] = m.regs[in.srcB]
		case isa.Jmp:
			tgt, taken = in.target, true
		case isa.Br:
			if in.cond.Eval(m.regs[in.srcA], m.regs[in.srcB]) {
				tgt, taken = in.target, true
			}
		case isa.Call:
			if len(m.ras) >= maxDepth {
				m.finishBatch(sink, batch)
				return st, fmt.Errorf("%w at %d", vm.ErrCallDepth, pc)
			}
			m.ras = append(m.ras, pc+1)
			tgt, taken = in.target, true
		case isa.CallInd:
			v := m.regs[in.srcA]
			if v < 0 || int(isa.Addr(v)) >= progLen {
				m.finishBatch(sink, batch)
				return st, fmt.Errorf("%w: at %d, computed %d", vm.ErrBadTarget, pc, v)
			}
			if len(m.ras) >= maxDepth {
				m.finishBatch(sink, batch)
				return st, fmt.Errorf("%w at %d", vm.ErrCallDepth, pc)
			}
			m.ras = append(m.ras, pc+1)
			tgt = isa.Addr(v)
			if !m.prog.IsBlockStart(tgt) {
				m.finishBatch(sink, batch)
				return st, fmt.Errorf("%w: %d -> %d", vm.ErrNotLeader, pc, tgt)
			}
			taken = true
		case isa.JmpInd:
			v := m.regs[in.srcA]
			if v < 0 || int(isa.Addr(v)) >= progLen {
				m.finishBatch(sink, batch)
				return st, fmt.Errorf("%w: at %d, computed %d", vm.ErrBadTarget, pc, v)
			}
			tgt = isa.Addr(v)
			if !m.prog.IsBlockStart(tgt) {
				m.finishBatch(sink, batch)
				return st, fmt.Errorf("%w: %d -> %d", vm.ErrNotLeader, pc, tgt)
			}
			taken = true
		case isa.Ret:
			if len(m.ras) == 0 {
				m.finishBatch(sink, batch)
				return st, fmt.Errorf("%w at %d", vm.ErrUnderflow, pc)
			}
			tgt = m.ras[len(m.ras)-1]
			m.ras = m.ras[:len(m.ras)-1]
			if int(tgt) >= progLen {
				m.finishBatch(sink, batch)
				return st, fmt.Errorf("%w: %d -> %d", vm.ErrBadTarget, pc, tgt)
			}
			if !m.prog.IsBlockStart(tgt) {
				m.finishBatch(sink, batch)
				return st, fmt.Errorf("%w: %d -> %d", vm.ErrNotLeader, pc, tgt)
			}
			taken = true
		case refOpPastEnd:
			st.Instrs--
			m.finishBatch(sink, batch)
			return st, fmt.Errorf("%w: fetch at %d", vm.ErrBadTarget, pc)
		default:
			m.finishBatch(sink, batch)
			return st, fmt.Errorf("vm: unknown opcode %d at %d", in.op, pc)
		}
		if taken {
			st.Branches++
			if sink != nil {
				batch = append(batch, vm.BlockEvent{Src: pc, Tgt: tgt, Kind: in.kind, Taken: true})
				if len(batch) == cap(batch) {
					sink.BlockBatch(batch)
					batch = batch[:0]
				}
			}
			pc = tgt
			continue
		}
		if in.flags&refEndsBlock != 0 && sink != nil && int(next) < progLen {
			batch = append(batch, vm.BlockEvent{Src: pc, Tgt: next})
			if len(batch) == cap(batch) {
				sink.BlockBatch(batch)
				batch = batch[:0]
			}
		}
		pc = next
	}
}

func (m *RefMachine) finishBatch(sink vm.BlockSink, batch []vm.BlockEvent) {
	if sink != nil && len(batch) > 0 {
		sink.BlockBatch(batch)
	}
	m.batch = batch[:0]
}

// vmStream collects a run's whole block-event stream.
type vmStream struct{ events []vm.BlockEvent }

func (s *vmStream) BlockBatch(events []vm.BlockEvent) { s.events = append(s.events, events...) }

// CompareVM runs p on m, which must be loaded with p under cfg and reset,
// and on a fresh RefMachine under cfg, after applying regs (register
// presets, by index) to both. It returns a descriptive error on the first
// divergence in the error text, Stats, block-event stream (fall-throughs
// included), final registers or final memory.
func CompareVM(m *vm.Machine, p *program.Program, cfg vm.Config, regs map[isa.Reg]int64) error {
	ref := NewRefMachine(p, cfg)
	for r, v := range regs {
		m.SetReg(r, v)
		ref.SetReg(r, v)
	}
	var got, want vmStream
	gst, gerr := m.Run(&got)
	wst, werr := ref.Run(&want)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Errorf("difftest: vm error divergence:\nvm:  %v\nref: %v", gerr, werr)
	}
	if gst != wst {
		return fmt.Errorf("difftest: vm stats divergence: vm=%+v ref=%+v", gst, wst)
	}
	if len(got.events) != len(want.events) {
		return fmt.Errorf("difftest: vm event count divergence: vm=%d ref=%d", len(got.events), len(want.events))
	}
	for i := range got.events {
		if got.events[i] != want.events[i] {
			return fmt.Errorf("difftest: vm event %d divergence: vm=%+v ref=%+v", i, got.events[i], want.events[i])
		}
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if m.Reg(r) != ref.Reg(r) {
			return fmt.Errorf("difftest: vm r%d divergence: vm=%d ref=%d", r, m.Reg(r), ref.Reg(r))
		}
	}
	for i := range ref.mem {
		if v := m.Mem(int64(i)); v != ref.mem[i] {
			return fmt.Errorf("difftest: vm mem[%d] divergence: vm=%d ref=%d", i, v, ref.mem[i])
		}
	}
	return nil
}
