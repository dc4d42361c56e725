package core

import (
	"fmt"

	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/program"
)

// CompactTrace is the space-efficient observed-trace representation of
// paper Figure 14: two bits per branch, with explicit target addresses only
// for taken indirect branches, terminated by "00" and the address of the
// trace's last instruction. Trace combination stores T_prof of these per
// profiled target and decodes them only when the region is finally formed,
// so the memory measured for Figure 18 is the byte length of these strings.
//
// Symbols:
//
//	01 <addr>  taken branch with a target not encoded in the instruction
//	10         conditional branch, not taken
//	11         taken branch with the target known from the instruction
//	00 <addr>  end of trace; addr is the trace's last instruction
type CompactTrace struct {
	bits bitString
}

const (
	symIndirect = 0b01
	symNotTaken = 0b10
	symTaken    = 0b11
	symEnd      = 0b00
)

// addrBits is the width of explicit addresses in the encoding. The paper
// uses the native pointer size (32 or 64 bits); our ISA addresses fit 32.
const addrBits = 32

// encodeTrace builds the compact representation of a recorded path
// (COMPACT-TRACE of Figure 14) in a freshly allocated bit string. The
// steady-state path is encodeInto via traceArena.add; this form remains for
// tests and reference comparisons.
func encodeTrace(branches []obsBranch, lastAddr isa.Addr) CompactTrace {
	var b bitString
	encodeInto(&b, branches, lastAddr)
	return CompactTrace{bits: b}
}

// encodeInto appends the Figure 14 encoding of one recorded path to b.
// branches are the branch outcomes along the path in order; lastAddr is the
// address of the final instruction.
func encodeInto(b *bitString, branches []obsBranch, lastAddr isa.Addr) {
	for _, br := range branches {
		switch {
		case br.indirect && br.taken:
			b.append2(symIndirect)
			b.appendAddr(uint32(br.target))
		case !br.taken:
			b.append2(symNotTaken)
		default:
			b.append2(symTaken)
		}
	}
	b.append2(symEnd)
	b.appendAddr(uint32(lastAddr))
}

// Bytes returns the storage footprint of the compact trace.
func (t CompactTrace) Bytes() int { return len(t.bits.data) }

// Decode reconstructs the block sequence of the observed trace. The
// decoder re-walks the program from head, consuming one symbol per branch
// instruction encountered, exactly as the optimizer in the paper decodes
// each instruction at most once (§4.2.1).
//
// When the trace ends with a taken branch (its final instruction), closing
// reports that branch's target and hasClosing is true: the observed path's
// final control transfer, which the CFG construction of §4.2.2 records as
// an edge (this is how a cyclic observed trace contributes its back edge).
func (t CompactTrace) Decode(p *program.Program, head isa.Addr) (blocks []codecache.BlockSpec, closing isa.Addr, hasClosing bool, err error) {
	return t.DecodeInto(p, head, nil)
}

// DecodeInto is Decode appending into a caller-provided scratch slice
// (truncated before use), so steady-state combination can reuse one decode
// buffer across observed traces. The returned slice aliases scratch's
// backing array when capacity suffices.
//
//lint:hotpath per-observed-trace decode during region combination
func (t CompactTrace) DecodeInto(p *program.Program, head isa.Addr, scratch []codecache.BlockSpec) (blocks []codecache.BlockSpec, closing isa.Addr, hasClosing bool, err error) {
	rd := bitReader{src: t.bits}
	blocks = scratch[:0]
	// Track the start of the current linear segment so the final segment
	// can be truncated (or dropped) at the encoded end address.
	segStart := head
	pc := head
	//lint:ignore hotpathalloc non-escaping closure, stack-allocated (called directly in this frame)
	appendSeg := func(from, through isa.Addr) {
		for b := from; ; {
			n := p.BlockLen(b)
			blocks = append(blocks, codecache.BlockSpec{Start: b, Len: n})
			end := b + isa.Addr(n)
			if end > through {
				return
			}
			b = end
		}
	}
	for steps := 0; ; steps++ {
		if steps > 1<<20 {
			return nil, 0, false, fmt.Errorf("core: compact trace decode did not terminate")
		}
		// Advance pc to the next symbol-consuming instruction: a branch, or
		// a halt (where only the end marker may follow — execution cannot
		// proceed past it, so the trace must have ended by then).
		for !p.At(pc).IsBranch() && p.At(pc).Op != isa.Halt {
			if !p.InRange(pc + 1) {
				return nil, 0, false, fmt.Errorf("core: compact trace ran off program end at %d", pc)
			}
			pc++
		}
		sym, err := rd.read2()
		if err != nil {
			return nil, 0, false, err
		}
		switch sym {
		case symEnd:
			endAddr, err := rd.readAddr()
			if err != nil {
				return nil, 0, false, err
			}
			last := isa.Addr(endAddr)
			// When the end address is the last instruction already
			// recorded, the trace ended exactly at the previous taken
			// branch and the segment opened by its target was never part
			// of the trace. This check must precede the in-segment check:
			// a backward taken branch (a cyclic trace) leaves the end
			// address inside the new segment's range, and appending would
			// fabricate a duplicate pass over the trace body. Traces never
			// contain duplicate blocks, so the two cases cannot collide.
			if len(blocks) > 0 && lastRecorded(blocks) == last {
				// The final instruction was a taken branch; segStart is the
				// target it transferred to — the trace's closing transfer.
				return blocks, segStart, true, nil
			}
			if last >= segStart && last <= pc {
				// The trace ends inside the current segment.
				appendSeg(segStart, last)
				return blocks, 0, false, nil
			}
			return nil, 0, false, fmt.Errorf("core: compact trace end %d outside segment [%d,%d]", last, segStart, pc)
		case symNotTaken:
			in := p.At(pc)
			if !in.IsConditional() {
				return nil, 0, false, fmt.Errorf("core: not-taken symbol at non-conditional %d", pc)
			}
			pc++
		case symTaken:
			in := p.At(pc)
			if in.IsIndirect() || !in.IsBranch() {
				return nil, 0, false, fmt.Errorf("core: taken symbol at %d (%s)", pc, in)
			}
			appendSeg(segStart, pc)
			segStart = in.Target
			pc = in.Target
		case symIndirect:
			tgt, err := rd.readAddr()
			if err != nil {
				return nil, 0, false, err
			}
			if !p.At(pc).IsIndirect() {
				return nil, 0, false, fmt.Errorf("core: indirect symbol at non-indirect %d", pc)
			}
			// Dynamic targets are always block leaders (the VM enforces
			// this at execution time); a corrupt encoding is rejected here
			// rather than walked.
			if !p.InRange(isa.Addr(tgt)) || !p.IsBlockStart(isa.Addr(tgt)) {
				return nil, 0, false, fmt.Errorf("core: indirect target %d is not a block leader", tgt)
			}
			appendSeg(segStart, pc)
			segStart = isa.Addr(tgt)
			pc = isa.Addr(tgt)
		}
	}
}

// traceSpan locates one compact trace inside a traceArena: a byte offset
// and a bit length. Spans are stored instead of byte-slice aliases because
// the arena's backing array moves when it grows; the trace is materialized
// only at decode time via traceArena.trace.
type traceSpan struct {
	off  int
	bits int
}

// bytes returns the storage footprint of the spanned trace — identical to
// CompactTrace.Bytes for the same encoding, so the Figure 18 accounting is
// unchanged by arena storage.
func (s traceSpan) bytes() int { return (s.bits + 7) / 8 }

// traceArena stores compact observed traces back to back in one grow-only
// byte buffer. Traces are appended until the owning Combiner resets; freed
// spans (released by finalize) are not reclaimed individually — the arena is
// epoch-cleared as a whole, which is what keeps steady-state combination
// allocation-free once the buffer has grown to the run's high-water mark.
type traceArena struct {
	buf []byte
	enc bitString // per-add encode scratch, copied into buf
}

// add encodes one recorded path into the arena and returns its span.
func (a *traceArena) add(branches []obsBranch, lastAddr isa.Addr) traceSpan {
	a.enc.reset()
	encodeInto(&a.enc, branches, lastAddr)
	off := len(a.buf)
	a.buf = append(a.buf, a.enc.data...)
	return traceSpan{off: off, bits: a.enc.n}
}

// trace materializes the compact trace stored at s. The returned value
// aliases the arena and is valid only until the next add or reset.
func (a *traceArena) trace(s traceSpan) CompactTrace {
	return CompactTrace{bits: bitString{data: a.buf[s.off : s.off+s.bytes()], n: s.bits}}
}

// reset discards all stored traces, keeping the buffer capacity.
func (a *traceArena) reset() {
	a.buf = a.buf[:0]
	a.enc.reset()
}

// lastRecorded returns the address of the final instruction of the decoded
// block list, or the all-ones address when empty — which a corrupt encoding
// can name as its end, so callers test for an empty list first.
func lastRecorded(blocks []codecache.BlockSpec) isa.Addr {
	if len(blocks) == 0 {
		return ^isa.Addr(0)
	}
	b := blocks[len(blocks)-1]
	return b.Start + isa.Addr(b.Len) - 1
}

// bitString is an append-only bit vector. Bits are packed MSB-first and
// appended in byte-wide chunks, so a 32-bit address costs at most five
// masked stores rather than 32 single-bit iterations. The invariant
// len(data) == ceil(n/8) is what CompactTrace.Bytes measures for Figure 18.
type bitString struct {
	data []byte
	n    int // bits used
}

// reset truncates the string for reuse, keeping the backing array.
func (b *bitString) reset() {
	b.data = b.data[:0]
	b.n = 0
}

// grow extends data to need bytes, zeroing any bytes recycled from a prior
// use of the backing array (appendBits ORs into them).
func (b *bitString) grow(need int) {
	old := len(b.data)
	if need <= old {
		return
	}
	if need <= cap(b.data) {
		b.data = b.data[:need]
		clear(b.data[old:])
		return
	}
	b.data = append(b.data, make([]byte, need-old)...)
}

// appendBits appends the low nbits of v, most significant bit first.
func (b *bitString) appendBits(v uint64, nbits uint) {
	b.grow((b.n + int(nbits) + 7) / 8)
	for nbits > 0 {
		space := 8 - uint(b.n)&7 // free bits in the current byte
		take := nbits
		if take > space {
			take = space
		}
		chunk := byte(v>>(nbits-take)) & byte(int(1)<<take-1)
		b.data[b.n>>3] |= chunk << (space - take)
		b.n += int(take)
		nbits -= take
	}
}

func (b *bitString) appendBit(bit uint) { b.appendBits(uint64(bit), 1) }

func (b *bitString) append2(sym uint) { b.appendBits(uint64(sym), 2) }

func (b *bitString) appendAddr(a uint32) { b.appendBits(uint64(a), addrBits) }

// Len returns the number of bits in the string.
func (b *bitString) Len() int { return b.n }

// bitReader consumes a bitString front to back.
type bitReader struct {
	src bitString
	pos int
}

// readBits reads the next nbits as an unsigned value, most significant bit
// first, in byte-wide chunks.
func (r *bitReader) readBits(nbits uint) (uint64, error) {
	if r.pos+int(nbits) > r.src.n {
		return 0, fmt.Errorf("core: compact trace truncated at bit %d", r.pos)
	}
	var v uint64
	for nbits > 0 {
		avail := 8 - uint(r.pos)&7 // unread bits in the current byte
		take := nbits
		if take > avail {
			take = avail
		}
		chunk := r.src.data[r.pos>>3] >> (avail - take) & byte(int(1)<<take-1)
		v = v<<take | uint64(chunk)
		r.pos += int(take)
		nbits -= take
	}
	return v, nil
}

func (r *bitReader) readBit() (uint, error) {
	v, err := r.readBits(1)
	return uint(v), err
}

func (r *bitReader) read2() (uint, error) {
	v, err := r.readBits(2)
	return uint(v), err
}

func (r *bitReader) readAddr() (uint32, error) {
	v, err := r.readBits(addrBits)
	return uint32(v), err
}
