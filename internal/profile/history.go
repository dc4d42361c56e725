package profile

import (
	"math"
	"math/bits"

	"repro/internal/isa"
)

// EntryKind classifies a history-buffer entry. LEI's buffer records every
// taken control transfer the simulated system performs outside native
// region execution: interpreted taken branches, the branch that enters the
// code cache, and the stub jump that exits it. Recording the cache
// boundary transfers is what lets FORM-TRACE reconstruct paths that pass
// by cached regions (it stops where the path enters one) and what lets a
// trace "grow from an existing trace" at a cache-exit target (paper §3.1
// and Figure 5 line 9: "old follows exit from code cache").
type EntryKind uint8

const (
	// KindInterp is an interpreted taken branch.
	KindInterp EntryKind = iota
	// KindEnter is a taken branch whose target is a cached region entry:
	// control left the interpreter here. Enter entries participate in path
	// reconstruction but never in cycle detection (Figure 5 jumps to the
	// cache before the profiling logic runs).
	KindEnter
	// KindExit is a stub transfer out of the code cache: Src is the last
	// original-code instruction of the region block that exited, Tgt is
	// where interpretation resumed.
	KindExit
)

// HistoryEntry is one taken control transfer in the LEI history buffer.
type HistoryEntry struct {
	// Src is the address of the instruction the transfer left from.
	Src isa.Addr
	// Tgt is the transfer target.
	Tgt isa.Addr
	// Kind classifies the entry.
	Kind EntryKind

	seq uint64
}

// Span is the closed interval [Lo, Hi] of history capacities.
type Span struct{ Lo, Hi int }

// FullSpan holds every capacity: the span of a run that never consulted a
// history buffer.
var FullSpan = Span{0, math.MaxInt}

// Contains reports whether capacity c lies in the span.
func (s Span) Contains(c int) bool { return s.Lo <= c && c <= s.Hi }

// Intersect returns the capacities in both spans.
func (s Span) Intersect(o Span) Span { return Span{max(s.Lo, o.Lo), min(s.Hi, o.Hi)} }

// HistoryBuffer is the circular buffer of the most recently taken branches,
// plus the hash table of branch targets currently in the buffer, exactly as
// required by the LEI algorithm (paper Figure 5). The buffer supports O(1)
// insert, O(1) target lookup, iteration over the entries following a given
// position, and truncation after a position (Figure 5, line 13).
//
// Positions are stable sequence numbers, not slot indices: an entry's
// position never changes, and a position is valid only while the entry is
// still resident. Hash entries that dangle after eviction or truncation are
// detected lazily by re-validating the resident entry's target.
//
// The "hash" is not a hash at all: branch targets are instruction addresses,
// so the target->position table is a dense address-indexed slice (like the
// CounterPool), making the once-per-taken-branch Lookup/SetHash pair on the
// LEI hot path two bounds-checked array accesses instead of map operations.
// Cells store seq+1 so the zero value means "absent" and the table can be
// grown (or pre-sized via EnsureAddrCap) without initialization.
//
// The buffer also measures its span: the capacities under which the same
// operations would have got the same answers. Let hw be the highest next
// ever reached. Eviction happens only when next == hw (after a truncation,
// next < hw and fewer than capacity entries are resident), so under any
// capacity C, first == max(0, hw−C), and position seq is resident exactly
// when seq ≥ hw−C. Residency is the only thing the capacity decides, and
// only Lookup asks it of a position the caller did not just get from
// Lookup: a hit at seq holds for every C ≥ hw−seq, and a miss because seq
// was evicted holds for every C < hw−seq. A dangling cell misses under
// every capacity. Span intersects those bounds over the run.
type HistoryBuffer struct {
	//lint:keep ring storage; first/next make all slots logically absent after Reset
	slots []HistoryEntry // a power of two at or above capacity
	//lint:keep fixed by Resize with slots
	mask uint64 // len(slots) - 1
	//lint:keep fixed by Resize with slots
	capacity int
	hash     []uint64 // target -> seq+1 of most recent occurrence (0 = none)
	first    uint64   // seq of oldest resident entry
	next     uint64   // seq the next insert will receive
	hw       uint64   // highest next ever reached
	lo, hi   int      // the span proved so far
	inserts  uint64
}

// NewHistoryBuffer returns a buffer holding at most capacity entries.
// The paper uses a capacity of 500.
func NewHistoryBuffer(capacity int) *HistoryBuffer {
	b := &HistoryBuffer{}
	b.Resize(capacity)
	return b
}

// EnsureAddrCap grows the target table to cover addresses [0, n), so a run
// whose branch targets stay below n never grows it again. The simulator
// pre-sizes selector state from the program length at run start.
func (b *HistoryBuffer) EnsureAddrCap(n int) {
	if n <= len(b.hash) {
		return
	}
	//lint:ignore hotpathalloc growth path; the len guard lives in the caller SetHash and pre-sized buffers never reach it
	grown := make([]uint64, n)
	copy(grown, b.hash)
	b.hash = grown
}

// Cap returns the buffer capacity.
func (b *HistoryBuffer) Cap() int { return b.capacity }

// Len returns the number of resident entries.
func (b *HistoryBuffer) Len() int { return int(b.next - b.first) }

// Inserts returns the total number of Insert calls.
func (b *HistoryBuffer) Inserts() uint64 { return b.inserts }

// Span returns the capacities under which every Lookup since the last Reset
// or Resize would have answered as it did (see HistoryBuffer). It always
// holds Cap().
func (b *HistoryBuffer) Span() Span { return Span{b.lo, b.hi} }

func (b *HistoryBuffer) slot(seq uint64) *HistoryEntry {
	return &b.slots[seq&b.mask]
}

// Insert appends a taken transfer to the buffer, evicting the oldest entry
// when full, and returns the new entry's position. An evicted entry's hash
// cell is left pointing below first: Lookup misses on it as it would on a
// cleared cell, and reads the eviction distance from it.
//
//lint:hotpath per-taken-branch under LEI
func (b *HistoryBuffer) Insert(src, tgt isa.Addr, kind EntryKind) uint64 {
	b.inserts++
	if b.next-b.first == uint64(b.capacity) {
		b.first++
	}
	seq := b.next
	*b.slot(seq) = HistoryEntry{Src: src, Tgt: tgt, Kind: kind, seq: seq}
	b.next++
	b.hw = max(b.hw, b.next)
	return seq
}

// resident reports whether seq names a live entry.
func (b *HistoryBuffer) resident(seq uint64) bool { return seq >= b.first && seq < b.next }

// Lookup returns the position of the most recent resident occurrence of tgt
// strictly before the last inserted entry, mirroring Figure 5 line 6: the
// hash is consulted after the new branch has been inserted, so a hit means
// the target completed a cycle. A hit or an evicted occurrence narrows the
// span.
//
//lint:hotpath per-taken-branch under LEI
func (b *HistoryBuffer) Lookup(tgt isa.Addr) (uint64, bool) {
	if int(tgt) >= len(b.hash) {
		return 0, false
	}
	cell := b.hash[tgt]
	if cell == 0 {
		return 0, false
	}
	seq := cell - 1
	if seq < b.first {
		// Evicted: every capacity below hw−seq evicted it too.
		b.hi = min(b.hi, int(b.hw-seq)-1)
		return 0, false
	}
	if seq >= b.next {
		// Truncated away.
		return 0, false
	}
	e := b.slot(seq)
	if e.Tgt != tgt || e.seq != seq {
		// Dangling reference into a truncated-and-reused slot.
		return 0, false
	}
	if seq == b.next-1 {
		// The reference is to the entry just inserted; no older occurrence.
		return 0, false
	}
	b.lo = max(b.lo, int(b.hw-seq))
	return seq, true
}

// SetHash points the hash at position seq for target tgt (Figure 5 lines 8
// and 17).
//
//lint:hotpath per-taken-branch under LEI
func (b *HistoryBuffer) SetHash(tgt isa.Addr, seq uint64) {
	if int(tgt) >= len(b.hash) {
		b.growHash(tgt)
	}
	b.hash[tgt] = seq + 1
}

// growHash extends the target table to cover tgt, doubling so repeated
// growth amortizes. Pre-sized buffers (EnsureAddrCap) never reach it.
func (b *HistoryBuffer) growHash(tgt isa.Addr) {
	n := int(tgt) + 1
	if n < 2*len(b.hash) {
		n = 2 * len(b.hash)
	}
	//lint:ignore hotpathalloc growth path; the len guard lives in the caller SetHash and pre-sized buffers never reach it
	grown := make([]uint64, n)
	copy(grown, b.hash)
	b.hash = grown
}

// Last returns the position of the most recently inserted entry. It panics
// when the buffer is empty.
func (b *HistoryBuffer) Last() uint64 {
	if b.next == b.first {
		panic("profile: Last on empty history buffer")
	}
	return b.next - 1
}

// At returns the entry at position seq. The position must be resident.
func (b *HistoryBuffer) At(seq uint64) HistoryEntry {
	if !b.resident(seq) {
		panic("profile: stale history position")
	}
	return *b.slot(seq)
}

// After returns the entries at positions strictly greater than seq, oldest
// first — the transfers of the just-completed cycle that FORM-TRACE walks
// (Figure 6, line 3). seq must be resident.
func (b *HistoryBuffer) After(seq uint64) []HistoryEntry {
	return b.AppendAfter(seq, make([]HistoryEntry, 0, b.next-seq-1))
}

// AppendAfter appends the entries at positions strictly greater than seq to
// dst, oldest first, and returns the extended slice. It is the allocation-free
// variant of After for callers that keep a reusable scratch slice. seq must
// be resident.
//
//lint:hotpath trace formation under LEI
func (b *HistoryBuffer) AppendAfter(seq uint64, dst []HistoryEntry) []HistoryEntry {
	if !b.resident(seq) {
		panic("profile: stale history position")
	}
	for s := seq + 1; s < b.next; s++ {
		dst = append(dst, *b.slot(s))
	}
	return dst
}

// TruncateAfter removes every entry at a position strictly greater than seq
// (Figure 5 line 13: once a trace has been selected the corresponding
// branches are removed from the buffer). Hash references into the removed
// region become dangling and are invalidated lazily by Lookup.
func (b *HistoryBuffer) TruncateAfter(seq uint64) {
	if !b.resident(seq) {
		panic("profile: stale history position")
	}
	b.next = seq + 1
}

// Reset empties the buffer, keeping the backing tables for reuse, and
// re-arms its span.
func (b *HistoryBuffer) Reset() {
	clear(b.hash)
	b.first = 0
	b.next = 0
	b.hw = 0
	b.lo, b.hi = FullSpan.Lo, FullSpan.Hi
	b.inserts = 0
}

// Resize empties the buffer and re-targets it to a new capacity. The slot
// array, the next power of two at or above the capacity so a slot is one
// mask away, is reallocated only when it outgrows the array it has; a
// smaller one reslices it, so pooled selectors re-armed across a HistoryCap
// sweep reuse their storage. Stale slots need no clearing: residency is
// defined by first and next and Reset clears the hash, so every slot a
// lookup can reach is rewritten in the new run.
func (b *HistoryBuffer) Resize(capacity int) {
	if capacity <= 0 {
		capacity = 1
	}
	n := 1 << bits.Len(uint(capacity-1))
	if n <= cap(b.slots) {
		b.slots = b.slots[:n]
	} else {
		b.slots = make([]HistoryEntry, n)
	}
	b.mask = uint64(n - 1)
	b.capacity = capacity
	b.Reset()
}
