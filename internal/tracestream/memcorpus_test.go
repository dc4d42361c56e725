package tracestream_test

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestMemRecorderMatchesDiskRecorder pins the in-memory recording path to
// the encoded one: tapping a run with a MemRecorder must yield exactly the
// header and event sequence that Record encodes and DecodeBytes recovers —
// the memo layer's corpora are the disk format minus the round-trip.
func TestMemRecorderMatchesDiskRecorder(t *testing.T) {
	const name, scale = "gzip", 40
	prog := workloads.MustGet(name).Build(scale)

	var buf bytes.Buffer
	if _, err := tracestream.Record(prog, name, scale, vm.Config{}, &buf); err != nil {
		t.Fatal(err)
	}
	disk, err := tracestream.DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	rec := tracestream.NewMemRecorder(prog, name, scale)
	st, err := vm.Run(prog, vm.Config{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	mem := rec.Corpus(st)

	if got, want := mem.Stream.Header, disk.Header; got != want {
		t.Errorf("in-memory header %+v, decoded header %+v", got, want)
	}
	if !reflect.DeepEqual(mem.Stream.Events, disk.Events) {
		t.Errorf("in-memory events diverge from decoded events (%d vs %d)",
			len(mem.Stream.Events), len(disk.Events))
	}
	if mem.Prog != prog {
		t.Error("corpus does not carry the recorded program")
	}
	// The budget charge covers everything the recording holds: the arena
	// by capacity plus the edge table every replay borrows.
	edges := mem.Edges()
	if edges == nil {
		t.Fatal("recorded corpus carries no edge table")
	}
	arena := int64(cap(mem.Stream.Events)) * int64(unsafe.Sizeof(vm.BlockEvent{}))
	if edges.SizeBytes() <= 0 || mem.SizeBytes() != arena+edges.SizeBytes() {
		t.Errorf("SizeBytes %d, want arena %d + edge table %d", mem.SizeBytes(), arena, edges.SizeBytes())
	}
}

// memCorpusOf fabricates an in-memory corpus of a one-instruction program
// with exactly n arena slots, built by NewCorpus so it carries an edge
// table like a recorded one.
func memCorpusOf(t *testing.T, n int) *tracestream.MemCorpus {
	t.Helper()
	p, err := program.New([]isa.Instr{{Op: isa.Halt}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &tracestream.Stream{Events: make([]vm.BlockEvent, n)}
	return &tracestream.MemCorpus{Corpus: *tracestream.NewCorpus(s, p)}
}

// TestMemBudgetLRUEviction covers the byte-budgeted LRU: admission evicts
// the least-recently-used corpus (with Get refreshing recency), oversized
// corpora are rejected without disturbing the resident set, and the
// counters record every outcome.
func TestMemBudgetLRUEviction(t *testing.T) {
	unit := memCorpusOf(t, 10).SizeBytes()
	if unit <= 0 {
		t.Fatalf("corpus size %d, want positive", unit)
	}
	b := tracestream.NewMemBudget(3 * unit)
	big := memCorpusOf(t, 100)
	if big.SizeBytes() <= 3*unit {
		t.Fatalf("oversized corpus is %d bytes, not above the %d-byte budget", big.SizeBytes(), 3*unit)
	}

	k := func(i int) tracestream.MemKey {
		return tracestream.MemKey{Workload: string(rune('a' + i)), Scale: i}
	}
	for i := 0; i < 3; i++ {
		if !b.Add(k(i), memCorpusOf(t, 10)) {
			t.Fatalf("corpus %d not admitted under a 3-corpus budget", i)
		}
	}
	// Refresh k0, then admit a fourth corpus: k1 is now the LRU victim.
	if b.Get(k(0)) == nil {
		t.Fatal("resident corpus k0 missed")
	}
	if !b.Add(k(3), memCorpusOf(t, 10)) {
		t.Fatal("k3 not admitted")
	}
	if b.Get(k(1)) != nil {
		t.Error("LRU victim k1 still resident; want evicted")
	}
	for _, i := range []int{0, 2, 3} {
		if b.Get(k(i)) == nil {
			t.Errorf("k%d evicted; want resident", i)
		}
	}

	// A corpus bigger than the whole budget must be rejected outright.
	if b.Add(k(4), big) {
		t.Error("oversized corpus admitted; want rejected")
	}
	if b.Get(k(4)) != nil {
		t.Error("rejected corpus resident")
	}

	st := b.Stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	if st.Resident != 3 || st.ResidentBytes != 3*unit {
		t.Errorf("occupancy %d corpora / %d bytes, want 3 / %d", st.Resident, st.ResidentBytes, 3*unit)
	}

	// Re-adding a resident key replaces it without growing occupancy.
	if !b.Add(k(0), memCorpusOf(t, 10)) {
		t.Fatal("replacement add refused")
	}
	if st := b.Stats(); st.Resident != 3 || st.ResidentBytes != 3*unit {
		t.Errorf("after replace: %d corpora / %d bytes, want 3 / %d", st.Resident, st.ResidentBytes, 3*unit)
	}
}
