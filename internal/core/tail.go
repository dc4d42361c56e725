package core

import (
	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/program"
)

// tailRecorder records a next-executing tail: the path interpreted
// immediately after a branch target reaches its execution threshold
// (paper §2.1). It is shared by plain NET and by combined NET, which
// records T_prof such tails before combining them.
//
// The recorder is fed every interpreted control transfer. It appends the
// target block of each transfer and stops, per the NET rules, when
//
//   - a backward branch is taken (the branch is included in the trace; the
//     trace is cyclic when the branch targets the trace head),
//   - a taken branch targets the start of another cached region, or
//   - the size limit is reached.
type tailRecorder struct {
	head      isa.Addr
	prog      *program.Program
	maxInstrs int
	maxBlocks int
	// crossBackward disables the backward-taken-branch stop rule except
	// for cycles back to the head (the AblateNETBackwardStop study).
	crossBackward bool

	blocks   []codecache.BlockSpec
	branches []obsBranch // branch outcomes, for the combiner's accounting
	instrs   int
	lastAddr isa.Addr // address of the last instruction recorded
	cyclic   bool
	done     bool
}

// obsBranch is one branch outcome along a recorded path, in path order: one
// symbol of the path's Figure 14 encoding.
type obsBranch struct {
	addr     isa.Addr // the branch instruction
	taken    bool
	indirect bool
	target   isa.Addr // meaningful when taken
}

func newTailRecorder(p *program.Program, head isa.Addr, maxInstrs, maxBlocks int) *tailRecorder {
	//lint:ignore hotpathalloc pool-miss constructor: recorderPool.get recycles in steady state
	r := &tailRecorder{head: head, prog: p, maxInstrs: maxInstrs, maxBlocks: maxBlocks}
	r.appendBlock(head)
	return r
}

// reset re-arms a recycled recorder for a new head, keeping the blocks and
// branches backing arrays.
func (r *tailRecorder) reset(p *program.Program, head isa.Addr, maxInstrs, maxBlocks int) {
	blocks := r.blocks[:0]
	branches := r.branches[:0]
	*r = tailRecorder{head: head, prog: p, maxInstrs: maxInstrs, maxBlocks: maxBlocks, blocks: blocks, branches: branches}
	r.appendBlock(head)
}

// recorderPool recycles tail recorders so that steady-state trace selection
// under pooled selectors stops allocating per promotion. Recorders are safe
// to recycle as soon as their spec or branch outcomes have been consumed:
// codecache.Insert and Combiner.store copy Blocks.
type recorderPool struct {
	free []*tailRecorder
}

func (p *recorderPool) get(prog *program.Program, head isa.Addr, maxInstrs, maxBlocks int) *tailRecorder {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		r.reset(prog, head, maxInstrs, maxBlocks)
		return r
	}
	return newTailRecorder(prog, head, maxInstrs, maxBlocks)
}

func (p *recorderPool) put(r *tailRecorder) {
	p.free = append(p.free, r)
}

func (r *tailRecorder) appendBlock(start isa.Addr) {
	n := r.prog.BlockLen(start)
	r.blocks = append(r.blocks, codecache.BlockSpec{Start: start, Len: n})
	r.instrs += n
	r.lastAddr = start + isa.Addr(n) - 1
}

// contains reports whether the block starting at addr is already recorded.
// NET paths have strictly increasing addresses so this is only a safety
// net; it keeps the cache's unique-block invariant if a workload ever
// produces a degenerate path.
func (r *tailRecorder) contains(addr isa.Addr) bool {
	for _, b := range r.blocks {
		if b.Start == addr {
			return true
		}
	}
	return false
}

// feed advances the recorder by one interpreted transfer. It returns true
// when the trace is complete.
func (r *tailRecorder) feed(ev Event) bool {
	if r.done {
		return true
	}
	// Record the branch outcome at the end of the current block when it is
	// a branch instruction (fall-throughs off non-branch block ends carry
	// no outcome).
	last := r.prog.At(ev.Src)
	if ev.Src == r.lastAddr && last.IsBranch() {
		r.branches = append(r.branches, obsBranch{
			addr:     ev.Src,
			taken:    ev.Taken,
			indirect: last.IsIndirect(),
			target:   ev.Tgt,
		})
	}
	if ev.Taken && ev.Tgt <= ev.Src {
		if !r.crossBackward || ev.Tgt == r.head {
			// Backward taken branch ends the trace; it is included, and
			// the trace spans a cycle when it targets the head.
			r.cyclic = ev.Tgt == r.head
			r.done = true
			return true
		}
		// Ablation mode: keep extending across the backward branch (the
		// revisit and size checks below still apply).
	}
	if ev.Taken && ev.ToCache {
		// Taken branch to the start of another region ends the trace.
		r.done = true
		return true
	}
	if r.contains(ev.Tgt) {
		r.done = true
		return true
	}
	n := r.prog.BlockLen(ev.Tgt)
	if r.instrs+n > r.maxInstrs || len(r.blocks) >= r.maxBlocks {
		r.done = true
		return true
	}
	r.appendBlock(ev.Tgt)
	return false
}

// spec returns the completed trace as a region spec.
func (r *tailRecorder) spec() codecache.Spec {
	return codecache.Spec{
		Entry:  r.head,
		Kind:   codecache.KindTrace,
		Blocks: r.blocks,
		Cyclic: r.cyclic,
	}
}
