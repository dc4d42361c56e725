package profile

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestCounterPoolBasics(t *testing.T) {
	p := NewCounterPool()
	if p.Live() != 0 || p.HighWater() != 0 {
		t.Fatal("new pool not empty")
	}
	for i := 1; i <= 5; i++ {
		if got := p.Incr(100); got != i {
			t.Errorf("Incr #%d = %d", i, got)
		}
	}
	p.Incr(200)
	if p.Live() != 2 || p.HighWater() != 2 {
		t.Errorf("live=%d high=%d, want 2, 2", p.Live(), p.HighWater())
	}
	if p.Get(100) != 5 || p.Get(999) != 0 {
		t.Error("Get wrong")
	}
	p.Release(100)
	if p.Live() != 1 {
		t.Errorf("live after release = %d", p.Live())
	}
	// High water is sticky.
	if p.HighWater() != 2 {
		t.Errorf("high water dropped to %d", p.HighWater())
	}
	// Recycled counter restarts at 1.
	if got := p.Incr(100); got != 1 {
		t.Errorf("recycled counter = %d, want 1", got)
	}
	if p.Allocations() != 3 {
		t.Errorf("allocations = %d, want 3", p.Allocations())
	}
	p.Release(12345) // releasing an absent counter is a no-op
	p.Reset()
	if p.Live() != 0 || p.HighWater() != 0 || p.Allocations() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestHistoryBufferCycleDetection(t *testing.T) {
	b := NewHistoryBuffer(8)
	s1 := b.Insert(10, 20, KindInterp)
	if _, ok := b.Lookup(20); ok {
		t.Fatal("lookup before SetHash should miss")
	}
	b.SetHash(20, s1)
	// A second branch to 20 completes a cycle.
	s2 := b.Insert(30, 20, KindInterp)
	old, ok := b.Lookup(20)
	if !ok || old != s1 {
		t.Fatalf("Lookup = %d, %v; want %d, true", old, ok, s1)
	}
	b.SetHash(20, s2)
	// The entries after old are exactly the new branch.
	after := b.After(old)
	if len(after) != 1 || after[0].Src != 30 || after[0].Tgt != 20 {
		t.Errorf("After = %+v", after)
	}
	if b.Last() != s2 {
		t.Errorf("Last = %d, want %d", b.Last(), s2)
	}
	if got := b.At(s1); got.Src != 10 || got.Kind != KindInterp {
		t.Errorf("At(s1) = %+v", got)
	}
}

func TestHistoryBufferSelfLoop(t *testing.T) {
	// A tight self loop B->B must be detected on its second execution.
	b := NewHistoryBuffer(4)
	s1 := b.Insert(5, 5, KindInterp)
	b.SetHash(5, s1)
	b.Insert(5, 5, KindInterp)
	if old, ok := b.Lookup(5); !ok || old != s1 {
		t.Errorf("self-loop cycle not detected: %d, %v", old, ok)
	}
}

func TestHistoryBufferLookupNeverReturnsLast(t *testing.T) {
	b := NewHistoryBuffer(4)
	s := b.Insert(1, 2, KindInterp)
	b.SetHash(2, s)
	if _, ok := b.Lookup(2); ok {
		// s is the most recent (and only) entry: by Figure 5's structure a
		// hit here would claim a cycle from an entry to itself.
		t.Error("Lookup returned the just-inserted entry")
	}
}

func TestHistoryBufferEviction(t *testing.T) {
	b := NewHistoryBuffer(3)
	s1 := b.Insert(1, 100, KindInterp)
	b.SetHash(100, s1)
	b.Insert(2, 200, KindInterp)
	b.Insert(3, 300, KindInterp)
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	// Next insert evicts the entry for 100; its hash reference must die.
	b.Insert(4, 400, KindInterp)
	if b.Len() != 3 {
		t.Fatalf("Len after eviction = %d", b.Len())
	}
	b.Insert(5, 100, KindInterp)
	if _, ok := b.Lookup(100); ok {
		t.Error("Lookup hit an evicted entry")
	}
}

func TestHistoryBufferTruncate(t *testing.T) {
	b := NewHistoryBuffer(8)
	s1 := b.Insert(1, 10, KindInterp)
	b.SetHash(10, s1)
	b.Insert(2, 20, KindInterp)
	s3 := b.Insert(3, 10, KindInterp)
	b.SetHash(10, s3)
	b.TruncateAfter(s1)
	if b.Len() != 1 {
		t.Fatalf("Len after truncate = %d", b.Len())
	}
	// The hash points at the truncated s3; the lazy check must reject it
	// once the slot is reused by a different target.
	b.Insert(9, 99, KindInterp)
	if old, ok := b.Lookup(10); ok {
		t.Errorf("Lookup(10) = %d after truncation reuse", old)
	}
	// After returns nothing past the truncation point plus new inserts.
	after := b.After(s1)
	if len(after) != 1 || after[0].Tgt != 99 {
		t.Errorf("After = %+v", after)
	}
}

func TestHistoryBufferStalePanics(t *testing.T) {
	b := NewHistoryBuffer(2)
	s1 := b.Insert(1, 10, KindInterp)
	b.Insert(2, 20, KindInterp)
	b.Insert(3, 30, KindInterp) // evicts s1
	for name, f := range map[string]func(){
		"At":            func() { b.At(s1) },
		"After":         func() { b.After(s1) },
		"TruncateAfter": func() { b.TruncateAfter(s1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(stale) did not panic", name)
				}
			}()
			f()
		}()
	}
	empty := NewHistoryBuffer(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Last on empty did not panic")
			}
		}()
		empty.Last()
	}()
}

// refBuffer is an independent reference implementation of the buffer's
// contract — a flat slice with absolute indices instead of a ring with
// wrapped sequence numbers — including the hash's latest-occurrence-only
// semantics: a target is only findable through its most recent SetHash
// reference, which dangles (and is lazily invalidated) after eviction or
// truncation, exactly as in the paper's Figure 5 structure.
type refBuffer struct {
	cap   int
	first int
	all   []HistoryEntry // absolute history; resident = [first, len)
	hash  map[isa.Addr]int
}

func newRefBuffer(capacity int) *refBuffer {
	return &refBuffer{cap: capacity, hash: map[isa.Addr]int{}}
}

func (r *refBuffer) insert(src, tgt isa.Addr, kind EntryKind) int {
	if len(r.all)-r.first == r.cap {
		if h, ok := r.hash[r.all[r.first].Tgt]; ok && h == r.first {
			delete(r.hash, r.all[r.first].Tgt)
		}
		r.first++
	}
	r.all = append(r.all, HistoryEntry{Src: src, Tgt: tgt, Kind: kind})
	return len(r.all) - 1
}

func (r *refBuffer) lookup(tgt isa.Addr) (HistoryEntry, int, bool) {
	i, ok := r.hash[tgt]
	if !ok || i < r.first || i >= len(r.all) || r.all[i].Tgt != tgt || i == len(r.all)-1 {
		return HistoryEntry{}, 0, false
	}
	return r.all[i], i, true
}

func (r *refBuffer) setHash(tgt isa.Addr, i int) { r.hash[tgt] = i }

func (r *refBuffer) after(i int) []HistoryEntry { return r.all[i+1:] }

func (r *refBuffer) truncateAfter(i int) { r.all = r.all[:i+1] }

func (r *refBuffer) len() int { return len(r.all) - r.first }

// TestHistoryBufferModel drives the real buffer and the reference model
// with the same random LEI-shaped operation sequence (insert+hash, lookup,
// occasional truncate) and requires identical observations. This covers
// the interacting eviction/truncation/hash-staleness corner cases.
func TestHistoryBufferModel(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 2 + rng.Intn(12)
		b := NewHistoryBuffer(capacity)
		ref := newRefBuffer(capacity)
		for step := 0; step < 400; step++ {
			src := isa.Addr(rng.Intn(20))
			tgt := isa.Addr(rng.Intn(20))
			kind := EntryKind(rng.Intn(3))
			seq := b.Insert(src, tgt, kind)
			refSeq := ref.insert(src, tgt, kind)
			old, ok := b.Lookup(tgt)
			refE, refI, refOK := ref.lookup(tgt)
			if ok != refOK {
				t.Logf("step %d: lookup ok=%v ref=%v", step, ok, refOK)
				return false
			}
			if ok {
				got := b.At(old)
				if got.Src != refE.Src || got.Tgt != refE.Tgt || got.Kind != refE.Kind {
					t.Logf("step %d: entry %+v vs ref %+v", step, got, refE)
					return false
				}
				after := b.After(old)
				refAfter := ref.after(refI)
				if len(after) != len(refAfter) {
					t.Logf("step %d: after len %d vs %d", step, len(after), len(refAfter))
					return false
				}
				for i := range after {
					if after[i].Src != refAfter[i].Src || after[i].Tgt != refAfter[i].Tgt {
						return false
					}
				}
				if rng.Intn(8) == 0 {
					b.TruncateAfter(old)
					ref.truncateAfter(refI)
					continue
				}
			}
			b.SetHash(tgt, seq)
			ref.setHash(tgt, refSeq)
			if b.Len() != ref.len() {
				t.Logf("step %d: len %d vs %d", step, b.Len(), ref.len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryBufferResizeReusesSlots pins Resize's storage rule across a
// HistoryCap sweep: the slot array is the next power of two at or above the
// capacity, only growth past it allocates, a shrink reslices the array it
// already has, and a shrunk buffer whose slots still hold a larger run's
// entries answers Lookup, At and AppendAfter exactly as a fresh buffer of
// the same capacity does.
func TestHistoryBufferResizeReusesSlots(t *testing.T) {
	b := NewHistoryBuffer(50)
	if b.Cap() != 50 || len(b.slots) != 64 {
		t.Fatalf("capacity 50: cap %d over %d slots; want 50 over 64", b.Cap(), len(b.slots))
	}
	small := &b.slots[0]
	b.Resize(1000)
	if b.Cap() != 1000 || len(b.slots) != 1024 || &b.slots[0] == small {
		t.Fatalf("growth to 1000: cap %d over %d slots, same array %v; want a new 1024-slot array", b.Cap(), len(b.slots), &b.slots[0] == small)
	}
	large := &b.slots[0]
	if allocs := testing.AllocsPerRun(10, func() {
		b.Resize(50)
		b.Resize(1000)
		b.Resize(50)
	}); allocs != 0 {
		t.Errorf("50→1000→50 within the grown array: %v allocs, want 0", allocs)
	}
	if b.Cap() != 50 || len(b.slots) != 64 || cap(b.slots) != 1024 || &b.slots[0] != large {
		t.Fatalf("shrink to 50: cap %d over %d of %d slots, same array %v; want the 1024-slot array resliced to 64",
			b.Cap(), len(b.slots), cap(b.slots), &b.slots[0] == large)
	}

	// Fill the large array, shrink, and drive the shrunk and a fresh buffer
	// through one LEI-shaped op sequence.
	b.Resize(1000)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2500; i++ {
		seq := b.Insert(isa.Addr(rng.Intn(64)), isa.Addr(rng.Intn(64)), KindExit)
		b.SetHash(isa.Addr(rng.Intn(64)), seq)
	}
	b.Resize(50)
	fresh := NewHistoryBuffer(50)
	for i := 0; i < 3000; i++ {
		src, tgt := isa.Addr(rng.Intn(48)), isa.Addr(rng.Intn(48))
		kind := EntryKind(rng.Intn(3))
		seq, fseq := b.Insert(src, tgt, kind), fresh.Insert(src, tgt, kind)
		if seq != fseq {
			t.Fatalf("op %d: Insert = %d, fresh %d", i, seq, fseq)
		}
		old, ok := b.Lookup(tgt)
		fold, fok := fresh.Lookup(tgt)
		if old != fold || ok != fok {
			t.Fatalf("op %d: Lookup(%d) = %d,%v, fresh %d,%v", i, tgt, old, ok, fold, fok)
		}
		b.SetHash(tgt, seq)
		fresh.SetHash(tgt, seq)
		if !ok {
			continue
		}
		if got, want := b.At(old), fresh.At(old); got != want {
			t.Fatalf("op %d: At(%d) = %+v, fresh %+v", i, old, got, want)
		}
		got, want := b.AppendAfter(old, nil), fresh.AppendAfter(old, nil)
		if len(got) != len(want) {
			t.Fatalf("op %d: AppendAfter(%d) = %d entries, fresh %d", i, old, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("op %d: AppendAfter(%d)[%d] = %+v, fresh %+v", i, old, j, got[j], want[j])
			}
		}
		if rng.Intn(4) == 0 {
			b.TruncateAfter(old)
			fresh.TruncateAfter(old)
		}
	}
}

// TestHistoryBufferSpan pins how each lookup narrows the span: a hit at
// distance d proves every capacity ≥ d, a miss on an entry evicted at
// distance d every capacity < d, a dangling cell nothing; Resize re-arms it.
func TestHistoryBufferSpan(t *testing.T) {
	b := NewHistoryBuffer(4)
	step := func(tgt isa.Addr) (uint64, bool) {
		seq := b.Insert(0, tgt, KindInterp)
		old, ok := b.Lookup(tgt)
		b.SetHash(tgt, seq)
		return old, ok
	}
	if b.Span() != FullSpan {
		t.Fatalf("fresh span %+v, want every capacity", b.Span())
	}
	step(1)
	step(2)
	step(3)
	// hw is 4 and the hit is at position 0: capacities of 4 and up hold it.
	if _, ok := step(1); !ok || b.Span() != (Span{4, FullSpan.Hi}) {
		t.Fatalf("hit at distance 4: span %+v, want [4, max]", b.Span())
	}
	step(4)
	step(5)
	step(6)
	step(7)
	// hw is 9 and the last 1, at position 3, is evicted: capacities of 6
	// and up would still hold it.
	if _, ok := step(1); ok || b.Span() != (Span{4, 5}) {
		t.Fatalf("miss on the 1 evicted at distance 6: span %+v, want [4, 5]", b.Span())
	}
	b.TruncateAfter(b.Last() - 2) // drops 7 and the new 1
	if _, ok := step(1); ok || b.Span() != (Span{4, 5}) {
		t.Fatalf("miss on a truncated 1: span %+v, want [4, 5]", b.Span())
	}
	b.Resize(4)
	if b.Span() != FullSpan {
		t.Fatalf("span after Resize %+v, want every capacity", b.Span())
	}
}
