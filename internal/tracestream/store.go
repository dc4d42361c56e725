package tracestream

import (
	"fmt"
	"sync"

	"repro/internal/dynopt"
	"repro/internal/vm"
)

// Key identifies a corpus by content. A trace file is keyed by the digest
// of its bytes, so a rewritten file is never served stale and the same
// recording at two paths decodes once. A memo recording is keyed by the
// digest of the program that produced it (program.Digest): the block-event
// stream depends only on the program (under the VM's default bounds) — the
// selectors observe it, never perturb it — so one recording serves every
// selector and parameter point of every run of that program, whatever
// workload, scale, input or seed built it.
type Key struct {
	Digest uint64
}

// StoreStats counts a Store's outcomes and describes its occupancy.
type StoreStats struct {
	// Hits is the number of lookups served from a resident corpus.
	Hits uint64
	// Misses is the number of lookups that found no resident corpus: each
	// either filled the key or fell back.
	Misses uint64
	// Fallbacks is the subset of misses that did not fill the key —
	// another caller held its claim, or its corpus had been rejected.
	Fallbacks uint64
	// Evictions is the number of corpora dropped to fit a newer one.
	Evictions uint64
	// Rejected is the number of corpora refused admission because they
	// alone exceed the whole budget.
	Rejected uint64
	// Resident and ResidentBytes describe current occupancy.
	Resident      int
	ResidentBytes int64
}

// String renders the counters as the one stats line the CLIs print.
func (st StoreStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d fallbacks=%d evictions=%d rejected=%d resident=%d(%dB)",
		st.Hits, st.Misses, st.Fallbacks, st.Evictions, st.Rejected, st.Resident, st.ResidentBytes)
}

// Store is a byte-budgeted, concurrency-safe LRU of replay-ready corpora —
// decoded trace files and memo recordings under one budget and one key
// scheme (SNIPPETS.md Snippet 3's content-keyed idiom). Each corpus is
// charged its SizeBytes. Admission evicts least-recently-used corpora until
// the newcomer fits; a corpus larger than the whole budget is rejected and
// its key is never filled again, so callers degrade to their slower
// fallback instead of thrashing the working set.
//
// A missing key is filled under a claim: Claim hands the key to exactly one
// caller, who builds the corpus and ends the claim with one of the two
// fills — FillFile for a trace file, FillRecording for a memo recording —
// which refuse a corpus that cannot fit before building it, abandon the
// claim on an error and admit the rest. Every other caller takes its
// fallback without blocking; the output is the same either way.
type Store struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	gen     uint64
	entries map[Key]*storeEntry
	// filling marks claimed keys; rejected marks keys whose corpus could
	// not fit the whole budget.
	filling  map[Key]bool
	rejected map[Key]bool
	stats    StoreStats

	// loading serializes LoadRef, so concurrent loads of one file share
	// one decode.
	loading sync.Mutex
}

type storeEntry struct {
	corpus *Corpus
	size   int64
	used   uint64 // generation of last access, for eviction
}

// NewStore returns a store bounding resident corpora to budgetBytes.
func NewStore(budgetBytes int64) *Store {
	return &Store{
		budget:   max(budgetBytes, 0),
		entries:  make(map[Key]*storeEntry),
		filling:  make(map[Key]bool),
		rejected: make(map[Key]bool),
	}
}

// DefaultCache is a process-wide store kept only for the benchmark module,
// which loads its trace corpus through it; the sweep engine and the CLIs
// own their stores.
var DefaultCache = NewStore(256 << 20)

// Holds reports whether k's corpus is resident, without counting a lookup
// or refreshing its recency: the sweep engine asks it before it answers a
// job with another job's report, which reads no corpus.
//
//lint:hotpath shared-cell dispatch in the sweep engine's job loop
func (s *Store) Holds(k Key) bool {
	s.mu.Lock()
	_, ok := s.entries[k]
	s.mu.Unlock()
	return ok
}

// Claim is the store's one lookup, settled under one lock: it returns k's
// resident corpus (a hit, refreshing its recency), or hands the caller k's
// fill claim (claimed true, a miss), or — when another caller holds the
// claim or k's corpus was rejected — neither, a miss counted as a
// fallback. The claimant ends the claim with FillFile or FillRecording (or
// Admit, Reject or Abandon directly). It sits on the sweep engine's replay
// dispatch, so the hit path stays allocation-free.
//
//lint:hotpath corpus replay dispatch (sweep.TestShardMemoAllocFree)
func (s *Store) Claim(k Key) (c *Corpus, claimed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		s.gen++
		e.used = s.gen
		s.stats.Hits++
		return e.corpus, false
	}
	s.stats.Misses++
	if s.filling[k] || s.rejected[k] {
		s.stats.Fallbacks++
		return nil, false
	}
	s.filling[k] = true
	return nil, true
}

// FillFile ends the caller's claim on src.Key with src's trace file. It
// refuses a file whose header's event count alone exceeds the whole budget
// without reading it, abandons the claim on an error, and returns the
// admitted corpus — nil when the store refused it, which the caller must
// not replay: its fallback streams the file.
func (s *Store) FillFile(src Source) (*Corpus, error) {
	if s.Reject(src.Key, int64(src.Events)*eventBytes) {
		return nil, nil
	}
	c, err := DecodeFile(src)
	if err != nil {
		s.Abandon(src.Key)
		return nil, err
	}
	if !s.Admit(src.Key, c) {
		return nil, nil
	}
	return c, nil
}

// FillRecording ends the caller's claim on src.Key by interpreting src.Prog
// alone into rec (dynopt.Record, on scratch's VM at its default bounds) and
// admitting the recording. It refuses a recording whose events alone exceed
// the whole budget before sealing it, and then drops rec's arena, so a
// recorder keeps no arena grown for a corpus no store had room for. A VM
// error abandons the claim and reads as dynopt.Run's. It returns the
// admitted corpus — nil when the store refused it, which the caller must
// not replay: its fallback runs the program live, which keeps a one-byte
// budget the live reference.
//
// rec is reset for the recording and otherwise keeps its arena, so a
// long-lived recorder records into an arena an earlier recording already
// grew, and the corpus costs one copy.
func (s *Store) FillRecording(src Source, scratch *dynopt.Scratch, rec *MemRecorder) (*Corpus, error) {
	rec.Reset(src.Prog, "", 0)
	st, err := dynopt.Record(src.Prog, vm.Config{}, scratch, rec)
	if err != nil {
		s.Abandon(src.Key)
		return nil, err
	}
	if !s.Reject(src.Key, rec.EventBytes()) {
		if c := &rec.Corpus(st).Corpus; s.Admit(src.Key, c) {
			return c, nil
		}
	}
	*rec = MemRecorder{}
	return nil, nil
}

// Admit ends the caller's claim on k by publishing corpus c, evicting
// least-recently-used corpora until it fits, and reports whether c is now
// resident. A corpus already resident under k is replaced, not double
// charged. A corpus larger than the whole budget is rejected without
// disturbing the resident set, and k's later claims fall back.
func (s *Store) Admit(k Key, c *Corpus) bool {
	size := c.SizeBytes()
	if s.Reject(k, size) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.filling, k)
	if e, ok := s.entries[k]; ok {
		s.used -= e.size
		delete(s.entries, k)
	}
	for s.used+size > s.budget && len(s.entries) > 0 {
		s.evictOldest()
	}
	s.gen++
	s.entries[k] = &storeEntry{corpus: c, size: size, used: s.gen}
	s.used += size
	return true
}

// Reject ends the caller's claim on k as Admit does for a corpus of size
// bytes, when size exceeds the whole budget, and reports whether it did. A
// caller holding a lower bound on its corpus's size asks first, so a corpus
// that cannot fit is never built.
func (s *Store) Reject(k Key, size int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size <= s.budget {
		return false
	}
	delete(s.filling, k)
	s.stats.Rejected++
	s.rejected[k] = true
	return true
}

// Abandon ends the caller's claim on k without a corpus (the fill failed),
// leaving k free for the next claim.
func (s *Store) Abandon(k Key) {
	s.mu.Lock()
	delete(s.filling, k)
	s.mu.Unlock()
}

// evictOldest drops the least-recently-used entry. Called with mu held.
func (s *Store) evictOldest() {
	var victim Key
	oldest := ^uint64(0)
	for k, e := range s.entries {
		if e.used < oldest {
			oldest = e.used
			victim = k
		}
	}
	s.used -= s.entries[victim].size
	delete(s.entries, victim)
	s.stats.Evictions++
}

// Stats returns a snapshot of the counters and occupancy.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Resident = len(s.entries)
	st.ResidentBytes = s.used
	return st
}

// LoadRef returns the decoded corpus of a trace-corpus reference
// ("trace:<path>"), filling the store with it (FillFile) on first sight of
// its content. Loads are serialized, so concurrent loads of one file share
// one decode. A corpus too big for the budget is still returned, decoded
// afresh by every load.
func (s *Store) LoadRef(ref string) (*Corpus, error) {
	src, err := ResolveRef(ref)
	if err != nil {
		return nil, err
	}
	s.loading.Lock()
	defer s.loading.Unlock()
	c, claimed := s.Claim(src.Key)
	if claimed {
		c, err = s.FillFile(src)
	}
	if c == nil && err == nil {
		return DecodeFile(src)
	}
	return c, err
}
