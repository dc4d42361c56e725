package core

import (
	"repro/internal/codecache"
	"repro/internal/isa"
)

// Trace combination keeps T_prof observed traces per profiled target. The
// paper stores each in the space-efficient form of Figure 14 — two bits per
// branch, an explicit address only for taken indirect branches, then an end
// marker and the address of the trace's last instruction — and decodes them
// when the region is formed. The recorders already hold every observed
// trace's block list, so the Combiner stores that list as it is and keeps of
// the encoding only what is observable: its byte length, the memory Figure 18
// measures, and the closing transfer the decoder would report. The frozen
// codec in internal/difftest is the oracle both are checked against.
//
// Symbols of the Figure 14 encoding:
//
//	01 <addr>  taken branch with a target not encoded in the instruction
//	10         conditional branch, not taken
//	11         taken branch with the target known from the instruction
//	00 <addr>  end of trace; addr is the trace's last instruction

// addrBits is the width of explicit addresses in the encoding. The paper
// uses the native pointer size (32 or 64 bits); our ISA addresses fit 32.
const addrBits = 32

// traceSpan is one stored observed trace: a run of the Combiner's block
// arena, located by offset rather than by slice because the arena's backing
// array moves when it grows.
type traceSpan struct {
	off, n int // the trace's blocks are arena[off : off+n]
	// closing is the target of the trace's final instruction when that is a
	// taken branch (hasClosing): the observed path's last control transfer,
	// which the CFG construction of §4.2.2 records as an edge (this is how a
	// cyclic observed trace contributes its back edge).
	closing    isa.Addr
	hasClosing bool
	bytes      int // length of the trace's Figure 14 encoding
}

// newTraceSpan describes a recorded path stored at arena offset off. blocks
// is the path, non-empty, and outcomes its branch outcomes in order. A trace
// closes when its last outcome is a taken branch at its last instruction; an
// outcome ending an earlier block, or a not-taken one, leaves it open.
func newTraceSpan(off int, blocks []codecache.BlockSpec, outcomes []obsBranch) traceSpan {
	bits := 2*(len(outcomes)+1) + addrBits // a symbol per outcome, the end marker and its address
	for _, o := range outcomes {
		if o.indirect && o.taken {
			bits += addrBits
		}
	}
	s := traceSpan{off: off, n: len(blocks), bytes: (bits + 7) / 8}
	if k := len(outcomes); k > 0 {
		last := blocks[len(blocks)-1]
		if o := outcomes[k-1]; o.taken && o.addr == last.Start+isa.Addr(last.Len)-1 {
			s.closing, s.hasClosing = o.target, true
		}
	}
	return s
}
