// Package difftest retains the pre-densification, map-based reference
// implementations of the selector profiling state — the counter pool, the
// LEI history buffer's target hash, and NET's recording table — and checks
// the dense, address-indexed production implementations against them.
//
// The production hot path migrated from Go maps to dense slices indexed by
// instruction address (see profile.CounterPool, profile.HistoryBuffer,
// core.NET); the map code was demoted to this package, where it exists only
// to serve as the behavioral oracle. The package's tests assert that dense
// and reference selectors make identical trace and region decisions, report
// identical counter high-waters, hit rates, and code-expansion statistics,
// over every named workload, over a large corpus of seeded random programs,
// and (via the fuzz targets) over arbitrary branch streams. It also keeps
// the event-at-a-time simulator (RefSimulator) as the oracle for dynopt's
// region-resident walk.
//
// Nothing but tests imports it.
package difftest

import (
	"repro/internal/isa"
	"repro/internal/profile"
)

// RefCounterPool is the frozen map-based counter pool the dense
// profile.CounterPool replaced. Live counters are exactly the map's keys.
type RefCounterPool struct {
	counters  map[isa.Addr]int
	highWater int
	allocs    uint64
}

// NewRefCounterPool returns an empty reference pool.
func NewRefCounterPool() *RefCounterPool {
	return &RefCounterPool{counters: map[isa.Addr]int{}}
}

// Incr increments the counter for addr, allocating it at zero first if
// needed, and returns the new value.
func (p *RefCounterPool) Incr(addr isa.Addr) int {
	if _, ok := p.counters[addr]; !ok {
		p.allocs++
		if len(p.counters)+1 > p.highWater {
			p.highWater = len(p.counters) + 1
		}
	}
	p.counters[addr]++
	return p.counters[addr]
}

// Get returns the current value of the counter for addr (zero when absent).
func (p *RefCounterPool) Get(addr isa.Addr) int { return p.counters[addr] }

// Release recycles the counter for addr.
func (p *RefCounterPool) Release(addr isa.Addr) { delete(p.counters, addr) }

// Live returns the number of counters currently allocated.
func (p *RefCounterPool) Live() int { return len(p.counters) }

// HighWater returns the maximum number of counters live at any point.
func (p *RefCounterPool) HighWater() int { return p.highWater }

// Allocations returns the total number of distinct counter allocations.
func (p *RefCounterPool) Allocations() uint64 { return p.allocs }

// RefHistoryEntry is one taken transfer in the reference history buffer.
type RefHistoryEntry struct {
	Src  isa.Addr
	Tgt  isa.Addr
	Kind profile.EntryKind

	seq uint64
}

// RefHistoryBuffer is the frozen map-hash history buffer the dense
// profile.HistoryBuffer replaced: the circular slot array is identical, but
// the target -> position table is a Go map, as it was before the dense
// migration. Its observable behavior (Insert, Lookup, SetHash, After,
// TruncateAfter, eviction, dangling-reference invalidation) must match the
// dense implementation exactly.
type RefHistoryBuffer struct {
	slots   []RefHistoryEntry
	hash    map[isa.Addr]uint64
	first   uint64
	next    uint64
	inserts uint64
}

// NewRefHistoryBuffer returns a reference buffer holding at most capacity
// entries.
func NewRefHistoryBuffer(capacity int) *RefHistoryBuffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &RefHistoryBuffer{
		slots: make([]RefHistoryEntry, capacity),
		hash:  map[isa.Addr]uint64{},
	}
}

// Cap returns the buffer capacity.
func (b *RefHistoryBuffer) Cap() int { return len(b.slots) }

// Len returns the number of resident entries.
func (b *RefHistoryBuffer) Len() int { return int(b.next - b.first) }

// Inserts returns the total number of Insert calls.
func (b *RefHistoryBuffer) Inserts() uint64 { return b.inserts }

func (b *RefHistoryBuffer) slot(seq uint64) *RefHistoryEntry {
	return &b.slots[seq%uint64(len(b.slots))]
}

// Insert appends a taken transfer, evicting the oldest entry when full, and
// returns the new entry's position.
func (b *RefHistoryBuffer) Insert(src, tgt isa.Addr, kind profile.EntryKind) uint64 {
	b.inserts++
	if b.next-b.first == uint64(len(b.slots)) {
		old := b.slot(b.first)
		if seq, ok := b.hash[old.Tgt]; ok && seq == b.first {
			delete(b.hash, old.Tgt)
		}
		b.first++
	}
	seq := b.next
	*b.slot(seq) = RefHistoryEntry{Src: src, Tgt: tgt, Kind: kind, seq: seq}
	b.next++
	return seq
}

func (b *RefHistoryBuffer) resident(seq uint64) bool { return seq >= b.first && seq < b.next }

// Lookup returns the position of the most recent resident occurrence of tgt
// strictly before the last inserted entry.
func (b *RefHistoryBuffer) Lookup(tgt isa.Addr) (uint64, bool) {
	seq, ok := b.hash[tgt]
	if !ok {
		return 0, false
	}
	if !b.resident(seq) {
		return 0, false
	}
	e := b.slot(seq)
	if e.Tgt != tgt || e.seq != seq {
		return 0, false
	}
	if seq == b.next-1 {
		return 0, false
	}
	return seq, true
}

// SetHash points the hash at position seq for target tgt.
func (b *RefHistoryBuffer) SetHash(tgt isa.Addr, seq uint64) { b.hash[tgt] = seq }

// Last returns the position of the most recently inserted entry.
func (b *RefHistoryBuffer) Last() uint64 {
	if b.next == b.first {
		panic("difftest: Last on empty history buffer")
	}
	return b.next - 1
}

// At returns the entry at position seq, which must be resident.
func (b *RefHistoryBuffer) At(seq uint64) RefHistoryEntry {
	if !b.resident(seq) {
		panic("difftest: stale history position")
	}
	return *b.slot(seq)
}

// After returns the entries at positions strictly greater than seq, oldest
// first. seq must be resident.
func (b *RefHistoryBuffer) After(seq uint64) []RefHistoryEntry {
	if !b.resident(seq) {
		panic("difftest: stale history position")
	}
	out := make([]RefHistoryEntry, 0, b.next-seq-1)
	for s := seq + 1; s < b.next; s++ {
		out = append(out, *b.slot(s))
	}
	return out
}

// TruncateAfter removes every entry at a position strictly greater than seq.
func (b *RefHistoryBuffer) TruncateAfter(seq uint64) {
	if !b.resident(seq) {
		panic("difftest: stale history position")
	}
	b.next = seq + 1
}
