package tracestream_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// writeTrace records a workload stream to a file and returns the path.
func writeTrace(t *testing.T, dir, name string, scale int) string {
	t.Helper()
	path := fmt.Sprintf("%s/%s-%d.trace", dir, name, scale)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	prog := workloads.MustGet(name).Build(scale)
	_, err = tracestream.Record(prog, name, scale, vm.Config{}, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// corpusOf fabricates a corpus of a one-instruction program with exactly n
// arena slots, built by NewCorpus so it carries an edge table like a
// recorded one.
func corpusOf(t *testing.T, n int) *tracestream.Corpus {
	t.Helper()
	p, err := program.New([]isa.Instr{{Op: isa.Halt}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tracestream.NewCorpus(&tracestream.Stream{Events: make([]vm.BlockEvent, n)}, p)
}

// fileKey returns the store key of a trace reference.
func fileKey(t *testing.T, ref string) tracestream.Key {
	t.Helper()
	src, err := tracestream.ResolveRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	return src.Key
}

// mustLoad loads a trace reference through s.
func mustLoad(t *testing.T, s *tracestream.Store, ref string) *tracestream.Corpus {
	t.Helper()
	c, err := s.LoadRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// admit fills cell key k with c through the claim protocol, as the sweep
// engine's recording shard does.
func admit(t *testing.T, s *tracestream.Store, k tracestream.Key, c *tracestream.Corpus) {
	t.Helper()
	if got, claimed := s.Claim(k); got != nil || !claimed {
		t.Fatalf("claim on a free key %+v = (%p, %v), want the claim", k, got, claimed)
	}
	if !s.Admit(k, c) {
		t.Fatalf("%+v not admitted", k)
	}
}

// TestStoreDecodesContentOnce pins content keying: the first load of a
// trace file decodes (a miss), and every later load of the same content —
// same path or a byte-identical copy at another path — is a hit returning
// the already-decoded corpus.
func TestStoreDecodesContentOnce(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, "gzip", 30)
	s := tracestream.NewStore(64 << 20)
	first := mustLoad(t, s, tracestream.RefPrefix+path)
	if second := mustLoad(t, s, tracestream.RefPrefix+path); second != first {
		t.Error("second load returned a different corpus object: decode was not skipped")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copyPath := dir + "/copy.trace"
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if third := mustLoad(t, s, tracestream.RefPrefix+copyPath); third != first {
		t.Error("byte-identical copy at another path missed the store: keying is not content-based")
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss and 2 hits", st)
	}
	if st.Resident != 1 || st.ResidentBytes != first.SizeBytes() {
		t.Errorf("occupancy %d corpora / %d bytes, want 1 / %d", st.Resident, st.ResidentBytes, first.SizeBytes())
	}
}

// TestStoreByteBoundLRU pins the one budget across both kinds of key: a
// decoded file and recorded cells are charged their SizeBytes, admission
// evicts the least-recently-used corpus whichever kind it is, and a lookup
// refreshes recency.
func TestStoreByteBoundLRU(t *testing.T) {
	ref := tracestream.RefPrefix + writeTrace(t, t.TempDir(), "gzip", 30)
	file := fileKey(t, ref)
	f := mustLoad(t, tracestream.NewStore(64<<20), ref).SizeBytes()
	c := corpusOf(t, 10).SizeBytes()
	if c <= 0 || c > f {
		t.Fatalf("cell corpus is %d bytes, want in (0, %d]", c, f)
	}
	cell := func(i int) tracestream.Key { return tracestream.Key{Digest: uint64(100 + i)} }

	s := tracestream.NewStore(f + c)
	mustLoad(t, s, ref)
	admit(t, s, cell(0), corpusOf(t, 10))
	if st := s.Stats(); st.Resident != 2 || st.ResidentBytes != f+c || st.Evictions != 0 {
		t.Fatalf("file + cell: %+v, want 2 resident, %d bytes, no eviction", st, f+c)
	}

	// Refresh the file, so the cell is the victim of the next admission.
	mustLoad(t, s, ref)
	admit(t, s, cell(1), corpusOf(t, 10))
	if s.Holds(cell(0)) {
		t.Error("LRU cell still resident; want evicted")
	}
	if !s.Holds(file) {
		t.Error("recently used file evicted; want resident")
	}

	// Refresh the cell, so the file is the victim of the next admission.
	if c, _ := s.Claim(cell(1)); c == nil {
		t.Fatal("resident cell missed")
	}
	admit(t, s, cell(2), corpusOf(t, 10))
	if s.Holds(file) {
		t.Error("LRU file still resident; want evicted")
	}
	st := s.Stats()
	if st.Evictions != 2 || st.Resident != 2 || st.ResidentBytes != 2*c {
		t.Errorf("after two evictions: %+v, want 2 evictions, 2 cells / %d bytes resident", st, 2*c)
	}
	// The evicted file decodes again on its next load.
	mustLoad(t, s, ref)
	if got := s.Stats(); got.Misses != st.Misses+1 || got.Evictions != st.Evictions+1 {
		t.Errorf("reloading the evicted file: stats %+v -> %+v, want one more miss and eviction", st, got)
	}
}

// TestMemBudgetLRUEviction covers the byte-budgeted LRU over cell keys:
// admission evicts the least-recently-used corpus (with a Claim hit
// refreshing recency), oversized corpora are rejected without disturbing the resident
// set, the counters record every outcome, and admitting a resident key
// again replaces its corpus without growing occupancy.
func TestMemBudgetLRUEviction(t *testing.T) {
	unit := corpusOf(t, 10).SizeBytes()
	if unit <= 0 {
		t.Fatalf("corpus size %d, want positive", unit)
	}
	s := tracestream.NewStore(3 * unit)
	big := corpusOf(t, 100)
	if big.SizeBytes() <= 3*unit {
		t.Fatalf("oversized corpus is %d bytes, not above the %d-byte budget", big.SizeBytes(), 3*unit)
	}

	k := func(i int) tracestream.Key {
		return tracestream.Key{Digest: uint64(1 + i)}
	}
	for i := 0; i < 3; i++ {
		admit(t, s, k(i), corpusOf(t, 10))
	}
	// Refresh k0, then admit a fourth corpus: k1 is now the LRU victim.
	if c, _ := s.Claim(k(0)); c == nil {
		t.Fatal("resident corpus k0 missed")
	}
	admit(t, s, k(3), corpusOf(t, 10))
	if s.Holds(k(1)) {
		t.Error("LRU victim k1 still resident; want evicted")
	}
	for _, i := range []int{0, 2, 3} {
		if !s.Holds(k(i)) {
			t.Errorf("k%d evicted; want resident", i)
		}
	}

	// A corpus bigger than the whole budget must be rejected outright.
	if _, claimed := s.Claim(k(4)); !claimed {
		t.Fatal("free key k4 not claimed")
	}
	if s.Admit(k(4), big) {
		t.Error("oversized corpus admitted; want rejected")
	}
	if s.Holds(k(4)) {
		t.Error("rejected corpus resident")
	}

	st := s.Stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	if st.Resident != 3 || st.ResidentBytes != 3*unit {
		t.Errorf("occupancy %d corpora / %d bytes, want 3 / %d", st.Resident, st.ResidentBytes, 3*unit)
	}

	// Re-admitting a resident key replaces it without growing occupancy.
	repl := corpusOf(t, 10)
	if !s.Admit(k(0), repl) {
		t.Fatal("replacement admit refused")
	}
	if st := s.Stats(); st.Resident != 3 || st.ResidentBytes != 3*unit || st.Evictions != 1 {
		t.Errorf("after replace: %d corpora / %d bytes / %d evictions, want 3 / %d / 1",
			st.Resident, st.ResidentBytes, st.Evictions, 3*unit)
	}
	if c, _ := s.Claim(k(0)); c != repl {
		t.Error("replaced key serves its old corpus")
	}
}

// TestStoreRejectsOversizedCorpus pins rejection: a corpus larger than the
// whole budget is refused without disturbing the resident set, its key is
// never claimed again, and a trace file too big for the budget is still
// loadable — decoded afresh every time.
func TestStoreRejectsOversizedCorpus(t *testing.T) {
	unit := corpusOf(t, 10).SizeBytes()
	s := tracestream.NewStore(3 * unit)
	admit(t, s, tracestream.Key{Digest: 1}, corpusOf(t, 10))
	admit(t, s, tracestream.Key{Digest: 2}, corpusOf(t, 10))
	big := tracestream.Key{Digest: 3}
	if s.Holds(big) {
		t.Fatal("unfilled key resident")
	}
	if _, claimed := s.Claim(big); !claimed {
		t.Fatal("free key not claimed")
	}
	if s.Admit(big, corpusOf(t, 100)) {
		t.Error("corpus over the whole budget admitted; want rejected")
	}
	if st := s.Stats(); st.Rejected != 1 || st.Resident != 2 || st.ResidentBytes != 2*unit {
		t.Errorf("after rejection: %+v, want 1 rejected, 2 resident / %d bytes", st, 2*unit)
	}
	if c, claimed := s.Claim(big); c != nil || claimed {
		t.Errorf("rejected key claimed again: (%p, %v)", c, claimed)
	}
	if st := s.Stats(); st.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", st.Fallbacks)
	}

	ref := tracestream.RefPrefix + writeTrace(t, t.TempDir(), "gzip", 30)
	tiny := tracestream.NewStore(1)
	first, second := mustLoad(t, tiny, ref), mustLoad(t, tiny, ref)
	if first == second {
		t.Error("over-budget file served from the store; want a fresh decode")
	}
	if st := tiny.Stats(); st.Rejected != 1 || st.Misses != 2 || st.Fallbacks != 1 || st.Resident != 0 {
		t.Errorf("over-budget file: %+v, want 1 rejected, 2 misses, 1 fallback, nothing resident", st)
	}
}

// TestStoreRejectsBeforeBuild pins Reject, the check a claimant makes
// with a lower bound on its corpus's size before building it: a size the
// budget holds keeps the claim for Admit; a larger one ends the claim as
// Admit's rejection would, and the key falls back from then on.
func TestStoreRejectsBeforeBuild(t *testing.T) {
	c := corpusOf(t, 10)
	s := tracestream.NewStore(c.SizeBytes())
	fits, big := tracestream.Key{Digest: 1}, tracestream.Key{Digest: 2}
	for _, k := range []tracestream.Key{fits, big} {
		if _, claimed := s.Claim(k); !claimed {
			t.Fatalf("free key %v not claimed", k)
		}
	}
	if s.Reject(fits, c.SizeBytes()) {
		t.Fatal("Reject refused a size the budget holds")
	}
	if !s.Admit(fits, c) {
		t.Fatal("claim kept by Reject not admitted")
	}
	if !s.Reject(big, c.SizeBytes()+1) {
		t.Fatal("Reject kept a size over the whole budget")
	}
	if got, claimed := s.Claim(big); got != nil || claimed {
		t.Errorf("rejected key claimed again: (%p, %v)", got, claimed)
	}
	if st := s.Stats(); st.Rejected != 1 || st.Resident != 1 || st.Fallbacks != 1 {
		t.Errorf("stats = %+v, want 1 rejected, 1 resident, 1 fallback", st)
	}
}

// TestStoreClaimFindsResident covers the first-touch race: shard B claims
// and publishes a key, and only then does shard A claim it. A must be handed
// B's corpus to replay instead of a claim to record the key again, and the
// counters must stay exact — B's claim is the one miss, A's is a hit.
func TestStoreClaimFindsResident(t *testing.T) {
	s := tracestream.NewStore(1 << 20)
	k := tracestream.Key{Digest: 60}
	want := corpusOf(t, 10)
	admit(t, s, k, want) // B claims and publishes
	got, claimed := s.Claim(k)
	if got != want || claimed {
		t.Fatalf("claim after publication = (%p, %v), want the resident corpus %p and no claim", got, claimed, want)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Fallbacks != 0 {
		t.Errorf("stats = %+v, want 1 hit and 1 miss (B's fill)", st)
	}
}

// TestStoreClaimLosersFallBack pins the claim protocol's outcomes and the
// counting invariant over them: while one caller holds a key's claim every
// other claim falls back without blocking, abandoning the claim frees the
// key, a rejected key falls back for good, and a resident key is a hit.
// Claim is the one lookup, so every call counts exactly once — Hits +
// Misses equals the calls, and the fallbacks are a subset of the misses.
func TestStoreClaimLosersFallBack(t *testing.T) {
	s := tracestream.NewStore(1 << 20)
	calls := uint64(0)
	claim := func(k tracestream.Key) (*tracestream.Corpus, bool) {
		calls++
		return s.Claim(k)
	}
	k, big, hot := tracestream.Key{Digest: 60}, tracestream.Key{Digest: 61}, tracestream.Key{Digest: 62}
	if _, claimed := claim(k); !claimed {
		t.Fatal("free key not claimed")
	}
	if c, claimed := claim(k); c != nil || claimed {
		t.Errorf("second claim while filling = (%p, %v), want a fallback", c, claimed)
	}
	s.Abandon(k)
	if _, claimed := claim(k); !claimed {
		t.Error("abandoned key not claimable")
	}
	if st := s.Stats(); st.Misses != 3 || st.Fallbacks != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 3 misses, 1 fallback", st)
	}

	if _, claimed := claim(big); !claimed || !s.Reject(big, 2<<20) {
		t.Fatal("free key not claimed and rejected")
	}
	want := corpusOf(t, 10)
	if _, claimed := claim(hot); !claimed || !s.Admit(hot, want) {
		t.Fatal("free key not claimed and admitted")
	}
	for i := 0; i < 3; i++ {
		if c, claimed := claim(big); c != nil || claimed {
			t.Errorf("claim on a rejected key = (%p, %v), want a fallback", c, claimed)
		}
		if c, claimed := claim(hot); c != want || claimed {
			t.Errorf("claim on a resident key = (%p, %v), want the corpus %p and no claim", c, claimed, want)
		}
		if c, claimed := claim(k); c != nil || claimed {
			t.Errorf("claim while its claimant fills = (%p, %v), want a fallback", c, claimed)
		}
	}
	st := s.Stats()
	if st.Hits+st.Misses != calls || st.Fallbacks > st.Misses {
		t.Errorf("stats = %+v over %d claims: want hits + misses = claims, fallbacks <= misses", st, calls)
	}
	if st.Hits != 3 || st.Misses != 11 || st.Fallbacks != 7 || st.Rejected != 1 {
		t.Errorf("stats = %+v, want 3 hits and 11 misses: 4 claims, 7 fallbacks, 1 rejected", st)
	}
}

// TestStoreConcurrentLoadsShareDecode hammers one store from many
// goroutines; the race detector checks safety, the counters check that
// each distinct file decoded exactly once.
func TestStoreConcurrentLoadsShareDecode(t *testing.T) {
	dir := t.TempDir()
	refA := tracestream.RefPrefix + writeTrace(t, dir, "gzip", 20)
	refB := tracestream.RefPrefix + writeTrace(t, dir, "fig3-nested-loops", 20)
	s := tracestream.NewStore(64 << 20)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		ref := refA
		if i%2 == 1 {
			ref = refB
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := s.LoadRef(ref); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Misses != 2 || st.Fallbacks != 0 {
		t.Errorf("stats = %+v, want exactly 2 misses (one decode per distinct content)", st)
	}
}

// TestDecodeFileRejectsChangedFile pins the content key across the gap
// between resolving a reference and decoding it: a file rewritten in
// between is an error, never a corpus stored under the old content's key.
func TestDecodeFileRejectsChangedFile(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, "gzip", 30)
	src, err := tracestream.ResolveRef(tracestream.RefPrefix + path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracestream.DecodeFile(src); err != nil {
		t.Fatalf("unchanged file: %v", err)
	}
	other, err := os.ReadFile(writeTrace(t, dir, "gzip", 31))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, other, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tracestream.DecodeFile(src); err == nil {
		t.Error("file rewritten after resolution decoded under its old key")
	}
}

// TestLoadRefErrors covers the reference-form error paths: non-reference
// names and missing files.
func TestLoadRefErrors(t *testing.T) {
	s := tracestream.NewStore(1 << 20)
	if _, err := s.LoadRef("gzip"); err == nil {
		t.Error("plain workload name accepted as a trace reference")
	}
	if _, err := s.LoadRef("trace:" + t.TempDir() + "/missing.trace"); err == nil {
		t.Error("missing file loaded without error")
	}
	if !tracestream.IsRef("trace:x") || tracestream.IsRef("gzip") {
		t.Error("IsRef misclassifies")
	}
	if got := tracestream.RefPath("trace:/tmp/a.trace"); got != "/tmp/a.trace" {
		t.Errorf("RefPath = %q", got)
	}
}
