// Package vm interprets programs for the region-selection simulator.
//
// The interpreter plays the role Pin played in the paper: it produces the
// sequence of basic blocks executed — every block boundary, taken branch or
// fall-through — that the simulated dynamic optimization system consumes.
// Execution is fully deterministic: all branch behaviour comes from the
// program's own computation.
package vm

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
)

// BranchKind classifies a taken control transfer.
type BranchKind uint8

const (
	// KindJump is a direct unconditional jump.
	KindJump BranchKind = iota
	// KindCond is a taken conditional branch.
	KindCond
	// KindCall is a direct call.
	KindCall
	// KindIndCall is an indirect call.
	KindIndCall
	// KindIndJump is an indirect jump.
	KindIndJump
	// KindReturn is a return.
	KindReturn
)

// String returns a short name for the kind.
func (k BranchKind) String() string {
	switch k {
	case KindJump:
		return "jmp"
	case KindCond:
		return "br"
	case KindCall:
		return "call"
	case KindIndCall:
		return "calli"
	case KindIndJump:
		return "jmpi"
	case KindReturn:
		return "ret"
	default:
		return "?"
	}
}

// BlockEvent describes the completed execution of one basic block: the
// block whose final instruction is Src transferred control to the leader
// Tgt. Taken distinguishes taken branches from fall-through boundaries;
// Kind is meaningful only when Taken is set.
type BlockEvent struct {
	Src   isa.Addr
	Tgt   isa.Addr
	Kind  BranchKind
	Taken bool
}

// BlockSink receives the dynamic stream from Run as batches of per-block
// boundary events — every block boundary, fall-throughs included — so
// consumers that track basic blocks (the dynopt simulator) never re-derive
// fall-through boundaries from the program, and the interface-call cost is
// amortized over the batch. Events arrive in execution order; the slice is
// reused between batches and must not be retained. Consumers that want
// only taken branches filter on BlockEvent.Taken.
type BlockSink interface {
	BlockBatch(events []BlockEvent)
}

// Config bounds an interpretation run. Zero values select defaults.
type Config struct {
	// MemWords is the size of data memory in 64-bit words (default 1<<20).
	// Addresses wrap modulo the size.
	MemWords int
	// MaxInstrs aborts runaway programs (default 1<<32).
	MaxInstrs uint64
	// MaxCallDepth bounds the return-address stack (default 1<<16).
	MaxCallDepth int
}

func (c *Config) defaults() {
	if c.MemWords == 0 {
		c.MemWords = 1 << 20
	}
	if c.MaxInstrs == 0 {
		c.MaxInstrs = 1 << 32
	}
	if c.MaxCallDepth == 0 {
		c.MaxCallDepth = 1 << 16
	}
}

// Stats summarizes a completed run.
type Stats struct {
	// Instrs is the total number of instructions executed.
	Instrs uint64
	// Branches is the number of taken branches.
	Branches uint64
	// FinalPC is the address of the halt instruction that ended the run.
	FinalPC isa.Addr
}

// Errors returned by Run.
var (
	ErrMaxInstrs = errors.New("vm: instruction budget exhausted")
	ErrCallDepth = errors.New("vm: call stack overflow")
	ErrUnderflow = errors.New("vm: return with empty call stack")
	ErrBadTarget = errors.New("vm: dynamic branch target out of range")
	ErrNotLeader = errors.New("vm: indirect branch target is not a block leader")
)

// pInstr is one predecoded instruction: operands widened into fixed slots,
// the branch kind and the length of the straight-line segment it starts
// resolved once at load time, so the dispatch loop fetches from a flat
// array and never re-derives static facts per step.
type pInstr struct {
	op   isa.Opcode
	cond isa.Cond
	dst  isa.Reg
	srcA isa.Reg
	srcB isa.Reg
	kind BranchKind // branch classification, for branch opcodes
	// two bytes of padding keep target aligned.
	target isa.Addr
	// run counts the instructions from this one up to and including the
	// next block end (a control instruction, or one whose successor is a
	// leader or the program end). It fills the four bytes that would
	// otherwise pad imm, so the struct stays 24 bytes.
	run uint32
	imm int64
}

// opPastEnd is the sentinel opcode placed one past the program's last
// instruction, so the dispatch loop detects a fall-off-the-end fetch
// without a per-step bounds check.
const opPastEnd isa.Opcode = 0xFF

// Machine is a reusable interpreter instance. The zero value must be
// loaded with Load before use; New combines allocation and loading.
type Machine struct {
	//lint:keep program identity, replaced by Load; Reset reuses the loaded program
	prog *program.Program
	//lint:keep configuration, replaced by Load
	cfg  Config
	regs [isa.NumRegs]int64
	mem  []int64
	ras  []isa.Addr // return-address stack
	//lint:keep predecode of prog, replaced by Load
	code []pInstr
	//lint:keep reusable block-event buffer, parked empty by Run's finishBatch
	batch []BlockEvent

	// dirtyLo/dirtyHi bound the words of mem written since the last Reset
	// (inclusive; lo > hi means none). Memory outside the range is
	// guaranteed zero, so Reset clears only the dirty window instead of the
	// whole (large, mostly untouched) image.
	dirtyLo, dirtyHi int64
}

// batchCap is the number of block events buffered between BlockBatch
// deliveries.
const batchCap = 1024

// New returns a Machine for the program.
func New(p *program.Program, cfg Config) *Machine {
	m := &Machine{}
	m.Load(p, cfg)
	return m
}

// Load re-targets the machine to program p under cfg, predecoding p and
// resetting all execution state. The machine's data memory and internal
// buffers are reused when their configured sizes allow, so a long-lived
// Machine can run many programs without re-allocating its (large) memory
// image.
func (m *Machine) Load(p *program.Program, cfg Config) {
	cfg.defaults()
	m.prog = p
	m.cfg = cfg
	if len(m.mem) != cfg.MemWords {
		m.mem = make([]int64, cfg.MemWords)
		m.dirtyLo, m.dirtyHi = int64(len(m.mem)), -1
	}
	m.predecode()
	m.Reset()
}

// predecode lowers the program into the dispatch-ready instruction array.
func (m *Machine) predecode() {
	n := m.prog.Len()
	if cap(m.code) < n+1 {
		m.code = make([]pInstr, n+1)
	}
	m.code = m.code[:n+1]
	m.code[n] = pInstr{op: opPastEnd, run: 1}
	// Backwards, so an instruction's run extends its successor's unless
	// the successor is a leader or the program end. Every control
	// instruction ends a block (program.computeBlocks makes its successor
	// a leader), so a segment is a block's tail.
	for a := n - 1; a >= 0; a-- {
		in := m.prog.At(isa.Addr(a))
		pi := pInstr{
			op:     in.Op,
			cond:   in.Cond,
			dst:    in.Dst,
			srcA:   in.SrcA,
			srcB:   in.SrcB,
			imm:    in.Imm,
			target: in.Target,
			run:    1,
		}
		switch in.Op {
		case isa.Jmp:
			pi.kind = KindJump
		case isa.Br:
			pi.kind = KindCond
		case isa.Call:
			pi.kind = KindCall
		case isa.CallInd:
			pi.kind = KindIndCall
		case isa.JmpInd:
			pi.kind = KindIndJump
		case isa.Ret:
			pi.kind = KindReturn
		}
		if a+1 < n && !m.prog.IsBlockStart(isa.Addr(a+1)) {
			pi.run += m.code[a+1].run
		}
		m.code[a] = pi
	}
}

// Reset clears registers, memory, and the call stack so the machine can be
// run again. Only the written region of memory is cleared; untouched words
// are zero by construction.
func (m *Machine) Reset() {
	m.regs = [isa.NumRegs]int64{}
	if m.dirtyLo <= m.dirtyHi {
		clear(m.mem[m.dirtyLo : m.dirtyHi+1])
	}
	m.dirtyLo, m.dirtyHi = int64(len(m.mem)), -1
	m.ras = m.ras[:0]
}

// Reg returns the current value of a register (for tests and examples).
func (m *Machine) Reg(r isa.Reg) int64 { return m.regs[r] }

// SetReg sets a register before a run (for parameterized workloads).
func (m *Machine) SetReg(r isa.Reg, v int64) { m.regs[r] = v }

// Mem returns the word at index i modulo the memory size.
func (m *Machine) Mem(i int64) int64 { return m.mem[m.wrap(i)] }

func (m *Machine) wrap(i int64) int64 {
	n := int64(len(m.mem))
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Run interprets the program from its entry until Halt, streaming batched
// block events to sink (see BlockSink). sink may be nil; Stats are counted
// either way. Buffered events are flushed before every return.
//
// The dispatch loop fetches from the predecoded instruction array one
// straight-line segment at a time: the instruction budget, the
// instruction count and the fall-through event are settled once per
// segment from its predecoded length, and only the segment's final
// instruction can branch or fail. When a segment would overrun the
// budget, exactly the remaining budget is executed before the run fails.
// Direct branch targets were validated at load time (program construction
// guarantees they are block leaders), so only dynamic targets pay a
// validity check, and the fall-off-the-end case is caught by the sentinel
// instruction rather than a per-step bounds test. Register operands are
// masked with 31 (isa.NumRegs-1), which is exact because program.New
// rejects any register at or above isa.NumRegs, and which lets the
// compiler drop the register file's bounds checks.
//
//lint:hotpath interpreter dispatch loop
func (m *Machine) Run(sink BlockSink) (Stats, error) {
	var st Stats
	pc := m.prog.Entry()
	code := m.code
	progLen := len(code) - 1
	maxInstrs := m.cfg.MaxInstrs
	maxDepth := m.cfg.MaxCallDepth
	regs := &m.regs
	if sink != nil && cap(m.batch) == 0 {
		m.batch = make([]BlockEvent, 0, batchCap)
	}
	batch := m.batch[:0]
segment:
	for {
		n := uint64(code[pc].run)
		cut := n > maxInstrs-st.Instrs
		if cut {
			n = maxInstrs - st.Instrs
		}
		st.Instrs += n
		for end := pc + isa.Addr(n); pc < end; pc++ {
			in := &code[pc]
			var tgt isa.Addr
			switch in.op {
			case isa.Nop:
				continue
			case isa.MovImm:
				regs[in.dst&31] = in.imm
				continue
			case isa.Mov:
				regs[in.dst&31] = regs[in.srcA&31]
				continue
			case isa.Add:
				regs[in.dst&31] = regs[in.srcA&31] + regs[in.srcB&31]
				continue
			case isa.AddImm:
				regs[in.dst&31] = regs[in.srcA&31] + in.imm
				continue
			case isa.Sub:
				regs[in.dst&31] = regs[in.srcA&31] - regs[in.srcB&31]
				continue
			case isa.Mul:
				regs[in.dst&31] = regs[in.srcA&31] * regs[in.srcB&31]
				continue
			case isa.Div:
				if d := regs[in.srcB&31]; d != 0 {
					regs[in.dst&31] = regs[in.srcA&31] / d
				} else {
					regs[in.dst&31] = 0
				}
				continue
			case isa.Rem:
				if d := regs[in.srcB&31]; d != 0 {
					regs[in.dst&31] = regs[in.srcA&31] % d
				} else {
					regs[in.dst&31] = 0
				}
				continue
			case isa.And:
				regs[in.dst&31] = regs[in.srcA&31] & regs[in.srcB&31]
				continue
			case isa.Or:
				regs[in.dst&31] = regs[in.srcA&31] | regs[in.srcB&31]
				continue
			case isa.Xor:
				regs[in.dst&31] = regs[in.srcA&31] ^ regs[in.srcB&31]
				continue
			case isa.Shl:
				regs[in.dst&31] = regs[in.srcA&31] << (uint64(regs[in.srcB&31]) & 63)
				continue
			case isa.Shr:
				regs[in.dst&31] = int64(uint64(regs[in.srcA&31]) >> (uint64(regs[in.srcB&31]) & 63))
				continue
			case isa.Load:
				regs[in.dst&31] = m.mem[m.wrap(regs[in.srcA&31]+in.imm)]
				continue
			case isa.Store:
				i := m.wrap(regs[in.srcA&31] + in.imm)
				m.mem[i] = regs[in.srcB&31]
				if i < m.dirtyLo {
					m.dirtyLo = i
				}
				if i > m.dirtyHi {
					m.dirtyHi = i
				}
				continue
			case isa.Halt:
				st.FinalPC = pc
				m.finishBatch(sink, batch)
				return st, nil
			case isa.Jmp:
				tgt = in.target
			case isa.Br:
				if !in.cond.Eval(regs[in.srcA&31], regs[in.srcB&31]) {
					continue
				}
				tgt = in.target
			case isa.Call:
				if len(m.ras) >= maxDepth {
					m.finishBatch(sink, batch)
					return st, fmt.Errorf("%w at %d", ErrCallDepth, pc)
				}
				m.ras = append(m.ras, pc+1)
				tgt = in.target
			case isa.CallInd:
				v := regs[in.srcA&31]
				if v < 0 || int(isa.Addr(v)) >= progLen {
					m.finishBatch(sink, batch)
					return st, fmt.Errorf("%w: at %d, computed %d", ErrBadTarget, pc, v)
				}
				if len(m.ras) >= maxDepth {
					m.finishBatch(sink, batch)
					return st, fmt.Errorf("%w at %d", ErrCallDepth, pc)
				}
				m.ras = append(m.ras, pc+1)
				tgt = isa.Addr(v)
				if !m.prog.IsBlockStart(tgt) {
					m.finishBatch(sink, batch)
					return st, fmt.Errorf("%w: %d -> %d", ErrNotLeader, pc, tgt)
				}
			case isa.JmpInd:
				v := regs[in.srcA&31]
				if v < 0 || int(isa.Addr(v)) >= progLen {
					m.finishBatch(sink, batch)
					return st, fmt.Errorf("%w: at %d, computed %d", ErrBadTarget, pc, v)
				}
				tgt = isa.Addr(v)
				if !m.prog.IsBlockStart(tgt) {
					m.finishBatch(sink, batch)
					return st, fmt.Errorf("%w: %d -> %d", ErrNotLeader, pc, tgt)
				}
			case isa.Ret:
				if len(m.ras) == 0 {
					m.finishBatch(sink, batch)
					return st, fmt.Errorf("%w at %d", ErrUnderflow, pc)
				}
				tgt = m.ras[len(m.ras)-1]
				m.ras = m.ras[:len(m.ras)-1]
				// Return addresses are post-call addresses, which
				// program.computeBlocks makes leaders, or the program end.
				if int(tgt) >= progLen {
					m.finishBatch(sink, batch)
					return st, fmt.Errorf("%w: %d -> %d", ErrBadTarget, pc, tgt)
				}
			case opPastEnd:
				// A final conditional branch can fall through past the
				// program end; the machine reports that program bug rather
				// than crash on it.
				st.Instrs--
				m.finishBatch(sink, batch)
				return st, fmt.Errorf("%w: fetch at %d", ErrBadTarget, pc)
			default:
				m.finishBatch(sink, batch)
				return st, fmt.Errorf("vm: unknown opcode %d at %d", in.op, pc)
			}
			// A taken branch, always its segment's final instruction.
			st.Branches++
			if sink != nil {
				batch = append(batch, BlockEvent{Src: pc, Tgt: tgt, Kind: in.kind, Taken: true})
				if len(batch) == cap(batch) {
					sink.BlockBatch(batch)
					batch = batch[:0]
				}
			}
			pc = tgt
			continue segment
		}
		if cut {
			// The budget ran out before the segment's final instruction,
			// so nothing in the segment could branch or fail.
			m.finishBatch(sink, batch)
			return st, fmt.Errorf("%w after %d instructions at %d", ErrMaxInstrs, st.Instrs, pc)
		}
		// The segment fell through its block end into the next leader, or
		// into the sentinel past the program end.
		if sink != nil && int(pc) < progLen {
			batch = append(batch, BlockEvent{Src: pc - 1, Tgt: pc})
			if len(batch) == cap(batch) {
				sink.BlockBatch(batch)
				batch = batch[:0]
			}
		}
	}
}

// finishBatch flushes buffered block events and parks the buffer for reuse.
func (m *Machine) finishBatch(sink BlockSink, batch []BlockEvent) {
	if sink != nil && len(batch) > 0 {
		sink.BlockBatch(batch)
	}
	m.batch = batch[:0]
}

// Run is a convenience wrapper: interpret p once with cfg, streaming to sink.
func Run(p *program.Program, cfg Config, sink BlockSink) (Stats, error) {
	return New(p, cfg).Run(sink)
}
