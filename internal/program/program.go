// Package program holds the static representation of a simulated binary:
// a flat instruction memory, the functions placed in it, and the basic-block
// decomposition the region selectors and metrics operate on.
package program

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Function describes a contiguous range of instructions with a name. The
// placement order of functions matters to the selectors: a call to a
// function at a lower address is a backward branch (paper §2.2, Figure 2).
type Function struct {
	Name  string
	Entry isa.Addr
	End   isa.Addr // exclusive
}

// Contains reports whether addr lies in the function body.
func (f Function) Contains(addr isa.Addr) bool { return addr >= f.Entry && addr < f.End }

// Program is an immutable simulated binary.
type Program struct {
	instrs []isa.Instr
	funcs  []Function
	labels map[string]isa.Addr

	// Basic-block decomposition, computed once at construction. All block
	// queries are answered from dense address- or block-indexed slices so
	// the simulator's per-block hot path never hashes.
	blockStarts []isa.Addr // sorted leaders
	blockEnds   []isa.Addr // exclusive end of each block, indexed by block id
	leaderOf    []int32    // addr -> index of containing block
	entry       isa.Addr

	// Lookup indexes computed once at construction: funcOf answers FuncAt
	// in O(1) (the index of the first function containing each address, -1
	// when none), and labelsAt inverts the label table for disassembly.
	funcOf   []int32
	labelsAt map[isa.Addr][]string
}

// New assembles a Program from raw instructions. The entry point is address
// 0. Labels and functions are optional metadata used for diagnostics.
func New(instrs []isa.Instr, funcs []Function, labels map[string]isa.Addr) (*Program, error) {
	if len(instrs) == 0 {
		return nil, fmt.Errorf("program: empty instruction stream")
	}
	for a, in := range instrs {
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("program: at %d: %w", a, err)
		}
		if in.IsBranch() && !in.IsIndirect() {
			if int(in.Target) >= len(instrs) {
				return nil, fmt.Errorf("program: at %d: branch target %d out of range", a, in.Target)
			}
		}
	}
	last := instrs[len(instrs)-1]
	if !last.EndsBlock() {
		return nil, fmt.Errorf("program: final instruction %s falls off the end", last)
	}
	if labels == nil {
		labels = map[string]isa.Addr{}
	}
	p := &Program{instrs: instrs, funcs: funcs, labels: labels}
	p.computeBlocks()
	p.computeIndexes()
	return p, nil
}

// computeIndexes builds the O(1) lookup tables over functions and labels.
func (p *Program) computeIndexes() {
	p.funcOf = make([]int32, len(p.instrs))
	for a := range p.funcOf {
		p.funcOf[a] = -1
	}
	// First containing function wins, matching the historical linear scan
	// when ranges overlap.
	for i, f := range p.funcs {
		for a := f.Entry; a < f.End && int(a) < len(p.funcOf); a++ {
			if p.funcOf[a] < 0 {
				p.funcOf[a] = int32(i)
			}
		}
	}
	p.labelsAt = make(map[isa.Addr][]string, len(p.labels))
	for name, a := range p.labels {
		p.labelsAt[a] = append(p.labelsAt[a], name)
	}
	for _, names := range p.labelsAt {
		sort.Strings(names)
	}
}

// computeBlocks finds basic-block leaders: the entry point, every direct
// branch target, and every instruction following a block-ending instruction.
// Indirect branch targets are discovered conservatively: any function entry
// and any instruction after a call is a leader (returns target post-call
// sites; indirect jumps in our workloads always target labeled leaders that
// are also direct targets or function entries via jump tables — the VM
// additionally verifies at run time that every dynamic branch target is a
// leader).
func (p *Program) computeBlocks() {
	leader := make([]bool, len(p.instrs))
	leader[0] = true
	for a, in := range p.instrs {
		if in.IsBranch() && !in.IsIndirect() {
			leader[in.Target] = true
		}
		if in.EndsBlock() && a+1 < len(p.instrs) {
			leader[a+1] = true
		}
	}
	for _, f := range p.funcs {
		if int(f.Entry) < len(p.instrs) {
			leader[f.Entry] = true
		}
	}
	// Labels are potential indirect-jump targets.
	for _, a := range p.labels {
		if int(a) < len(p.instrs) {
			leader[a] = true
		}
	}
	p.leaderOf = make([]int32, len(p.instrs))
	for a, isL := range leader {
		if isL {
			p.blockStarts = append(p.blockStarts, isa.Addr(a))
		}
		p.leaderOf[a] = int32(len(p.blockStarts) - 1)
	}
	p.blockEnds = make([]isa.Addr, len(p.blockStarts))
	for id := range p.blockEnds {
		if id+1 < len(p.blockStarts) {
			p.blockEnds[id] = p.blockStarts[id+1]
		} else {
			p.blockEnds[id] = isa.Addr(len(p.instrs))
		}
	}
}

// Len returns the number of instructions in the program.
func (p *Program) Len() int { return len(p.instrs) }

// Digest returns a 64-bit FNV-1a content hash over the instruction stream
// (opcodes, operands, immediates, targets — not labels or function names,
// which never affect execution). Recorded trace streams embed it
// (internal/tracestream) so a replay against a different program fails fast
// instead of producing silently wrong attributions.
func (p *Program) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, in := range p.instrs {
		ops := uint64(in.Op) | uint64(in.Cond)<<8 | uint64(in.Dst)<<16 | uint64(in.SrcA)<<24 | uint64(in.SrcB)<<32
		for _, v := range [3]uint64{ops, uint64(in.Imm), uint64(in.Target)} {
			for i := 0; i < 8; i++ {
				h ^= v & 0xff
				h *= prime64
				v >>= 8
			}
		}
	}
	return h
}

// Entry returns the program entry point.
func (p *Program) Entry() isa.Addr { return p.entry }

// At returns the instruction at addr. It panics when addr is out of range;
// the VM validates all dynamic targets before fetching.
func (p *Program) At(addr isa.Addr) isa.Instr { return p.instrs[addr] }

// InRange reports whether addr names an instruction.
func (p *Program) InRange(addr isa.Addr) bool { return int(addr) < len(p.instrs) }

// Funcs returns the function table.
func (p *Program) Funcs() []Function { return p.funcs }

// FuncAt returns the function containing addr, if any. The lookup is a
// single indexed load into the table built at construction.
func (p *Program) FuncAt(addr isa.Addr) (Function, bool) {
	if int(addr) >= len(p.funcOf) {
		return Function{}, false
	}
	i := p.funcOf[addr]
	if i < 0 {
		return Function{}, false
	}
	return p.funcs[i], true
}

// Label resolves a label name.
func (p *Program) Label(name string) (isa.Addr, bool) {
	a, ok := p.labels[name]
	return a, ok
}

// Labels returns a copy of the label table.
func (p *Program) Labels() map[string]isa.Addr {
	out := make(map[string]isa.Addr, len(p.labels))
	for name, a := range p.labels {
		out[name] = a
	}
	return out
}

// NumBlocks returns the number of static basic blocks.
func (p *Program) NumBlocks() int { return len(p.blockStarts) }

// BlockStarts returns the sorted leader addresses. The returned slice must
// not be modified.
func (p *Program) BlockStarts() []isa.Addr { return p.blockStarts }

// IsBlockStart reports whether addr is a basic-block leader.
func (p *Program) IsBlockStart(addr isa.Addr) bool {
	return int(addr) < len(p.leaderOf) && p.blockStarts[p.leaderOf[addr]] == addr
}

// BlockID returns the dense index of the block led by addr, or -1 when addr
// is not a leader.
func (p *Program) BlockID(addr isa.Addr) int {
	if int(addr) >= len(p.leaderOf) {
		return -1
	}
	id := p.leaderOf[addr]
	if p.blockStarts[id] != addr {
		return -1
	}
	return int(id)
}

// BlockContaining returns the leader of the block containing addr.
func (p *Program) BlockContaining(addr isa.Addr) isa.Addr {
	return p.blockStarts[p.leaderOf[addr]]
}

// BlockEnd returns the exclusive end address of the block led by start:
// execution entering at start runs linearly through BlockEnd-1.
func (p *Program) BlockEnd(start isa.Addr) isa.Addr {
	id := p.BlockID(start)
	if id < 0 {
		panic(fmt.Sprintf("program: %d is not a block leader", start))
	}
	return p.blockEnds[id]
}

// BlockLen returns the instruction count of the block led by start.
func (p *Program) BlockLen(start isa.Addr) int {
	return int(p.BlockEnd(start) - start)
}

// BlockBytes returns the encoded byte size of the block led by start.
func (p *Program) BlockBytes(start isa.Addr) int {
	n := 0
	for a := start; a < p.BlockEnd(start); a++ {
		n += p.instrs[a].Op.Bytes()
	}
	return n
}

// RangeBytes returns the encoded size of instructions in [start, end).
func (p *Program) RangeBytes(start, end isa.Addr) int {
	n := 0
	for a := start; a < end && p.InRange(a); a++ {
		n += p.instrs[a].Op.Bytes()
	}
	return n
}

// StaticSuccessors returns the possible successor leaders of the block led
// by start, for blocks ending in direct control flow. Indirect blocks return
// only the fall-through (calls) or nothing (jmpi/ret).
func (p *Program) StaticSuccessors(start isa.Addr) []isa.Addr {
	end := p.BlockEnd(start)
	last := p.instrs[end-1]
	var succs []isa.Addr
	switch {
	case last.Op == isa.Halt:
	case last.Op == isa.Jmp:
		succs = append(succs, last.Target)
	case last.Op == isa.Br:
		succs = append(succs, last.Target)
		if p.InRange(end) {
			succs = append(succs, end)
		}
	case last.Op == isa.Call:
		succs = append(succs, last.Target)
	case last.IsIndirect():
		// Unknown statically.
	default:
		if p.InRange(end) {
			succs = append(succs, end)
		}
	}
	return succs
}

// Verify performs deep structural consistency checks beyond what New
// validates: blocks partition the instruction space, every direct branch
// target is a block leader, functions are sorted and non-overlapping, and
// labels land inside the program. It exists for tests and for validating
// generated or hand-assembled programs.
func (p *Program) Verify() error {
	// Blocks partition the program.
	prev := isa.Addr(0)
	for i, start := range p.blockStarts {
		if i == 0 {
			if start != 0 {
				return fmt.Errorf("program: first block starts at %d", start)
			}
		} else if start <= prev {
			return fmt.Errorf("program: block starts not strictly increasing at %d", start)
		}
		end := p.BlockEnd(start)
		if end <= start {
			return fmt.Errorf("program: empty block at %d", start)
		}
		// No interior instruction ends a block.
		for a := start; a < end-1; a++ {
			if p.instrs[a].EndsBlock() {
				return fmt.Errorf("program: block-ending %s at %d is interior to block [%d,%d)", p.instrs[a], a, start, end)
			}
		}
		prev = start
	}
	if got := p.BlockEnd(p.blockStarts[len(p.blockStarts)-1]); got != isa.Addr(len(p.instrs)) {
		return fmt.Errorf("program: blocks do not cover the program (last ends at %d of %d)", got, len(p.instrs))
	}
	// Direct branch targets are leaders.
	for a, in := range p.instrs {
		if in.IsBranch() && !in.IsIndirect() && !p.IsBlockStart(in.Target) {
			return fmt.Errorf("program: branch at %d targets non-leader %d", a, in.Target)
		}
	}
	// Functions are ordered and disjoint.
	for i, f := range p.funcs {
		if f.End < f.Entry || int(f.End) > len(p.instrs) {
			return fmt.Errorf("program: function %s has range [%d,%d)", f.Name, f.Entry, f.End)
		}
		if i > 0 && f.Entry < p.funcs[i-1].End {
			return fmt.Errorf("program: function %s overlaps %s", f.Name, p.funcs[i-1].Name)
		}
	}
	// Labels are in range and are leaders.
	for name, a := range p.labels {
		if !p.InRange(a) {
			return fmt.Errorf("program: label %s at %d out of range", name, a)
		}
		if !p.IsBlockStart(a) {
			return fmt.Errorf("program: label %s at %d is not a leader", name, a)
		}
	}
	return nil
}

// Disassemble renders the instructions in [start, end) with addresses,
// labels, and function headers, for human consumption.
func (p *Program) Disassemble(start, end isa.Addr) string {
	if end > isa.Addr(len(p.instrs)) {
		end = isa.Addr(len(p.instrs))
	}
	out := ""
	for a := start; a < end; a++ {
		for _, f := range p.funcs {
			if f.Entry == a {
				out += fmt.Sprintf("func %s:\n", f.Name)
			}
		}
		for _, name := range p.labelsAt[a] {
			out += fmt.Sprintf("%s:\n", name)
		}
		out += fmt.Sprintf("  %4d  %s\n", a, p.instrs[a])
	}
	return out
}
