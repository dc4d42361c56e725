package tracestream

import (
	"sync"
	"unsafe"

	"repro/internal/program"
	"repro/internal/vm"
)

// MemRecorder captures a program's block-event stream straight into a dense
// in-memory []vm.BlockEvent arena — no varint encoding, no disk round-trip,
// no decode on replay. It implements vm.BlockSink, so it taps a live run via
// dynopt's Config.Tap exactly like Recorder; Corpus then seals the arena
// into a replay-ready MemCorpus whose events feed dynopt.RunEvents as-is.
// The sweep engine's memoization layer (internal/sweep) records each
// (workload, scale) cell once this way and replays it for every other grid
// cell that shares the stream.
type MemRecorder struct {
	//lint:keep identifies the program being recorded; the arena starts a fresh take
	h      Header
	prog   *program.Program
	events []vm.BlockEvent
}

// NewMemRecorder prepares an in-memory recording of program p, labeled with
// the workload name and scale that built it.
func NewMemRecorder(p *program.Program, workload string, scale int) *MemRecorder {
	return &MemRecorder{
		h: Header{
			Workload:      workload,
			Scale:         scale,
			ProgramLen:    p.Len(),
			ProgramDigest: p.Digest(),
		},
		prog: p,
	}
}

// BlockBatch implements vm.BlockSink, appending the batch to the arena. The
// VM reuses the batch slice, so events are copied, never retained.
//
//lint:hotpath recording rides the live-run event path
func (r *MemRecorder) BlockBatch(events []vm.BlockEvent) {
	r.events = append(r.events, events...)
}

// Corpus seals the recording into a replay-ready in-memory corpus, stamping
// the run totals from the recorded run's stats and counting the arena's
// edge table (NewCorpus). The recorder must not be reused afterwards — the
// corpus owns the arena.
func (r *MemRecorder) Corpus(st vm.Stats) *MemCorpus {
	h := r.h
	h.Events = uint64(len(r.events))
	h.Branches = st.Branches
	h.Instrs = st.Instrs
	h.FinalPC = st.FinalPC
	return &MemCorpus{Corpus: *NewCorpus(&Stream{Header: h, Events: r.events}, r.prog)}
}

// MemCorpus is a Corpus that only ever lived in memory: recorded by a
// MemRecorder in the same process, never encoded to the stream format. Its
// embedded Corpus replays anywhere a decoded one does (Shard.Replay,
// dynopt.RunEvents); FileDigest stays zero because there is no file.
type MemCorpus struct {
	Corpus
}

// eventBytes is the resident footprint of one arena slot.
const eventBytes = int64(unsafe.Sizeof(vm.BlockEvent{}))

// SizeBytes reports the corpus's resident footprint — the event arena plus
// the edge table — which is what admission against a MemBudget charges.
// Capacity, not length: the grown backing arrays are what the process
// actually holds.
func (c *MemCorpus) SizeBytes() int64 {
	n := int64(cap(c.Stream.Events)) * eventBytes
	if c.edges != nil {
		n += c.edges.SizeBytes()
	}
	return n
}

// MemKey identifies a memoizable cell: PR 8 established that the
// branch-event stream depends only on the (workload, scale) pair — the
// selectors merely observe it — so one recording serves every selector and
// parameter point of the cell.
type MemKey struct {
	Workload string
	Scale    int
}

// MemStats counts budget outcomes, for observability and the
// eviction/fallback tests.
type MemStats struct {
	// Hits is the number of lookups served from a resident corpus.
	Hits uint64
	// Misses is the number of lookups that found no resident corpus.
	Misses uint64
	// Evictions is the number of corpora dropped to fit a newer one.
	Evictions uint64
	// Rejected is the number of corpora refused admission because they
	// alone exceed the whole budget — their cells run live forever.
	Rejected uint64
	// Resident and ResidentBytes describe current occupancy.
	Resident      int
	ResidentBytes int64
}

// MemBudget is a byte-budgeted, concurrency-safe LRU over in-memory corpora
// — Cache's generation-stamped LRU generalized from an entry count to a
// resident-byte bound, keyed by cell rather than file digest. Admission
// evicts least-recently-used corpora until the newcomer fits; a corpus that
// cannot fit even an empty budget is rejected, so callers degrade to live
// execution instead of thrashing the working set.
type MemBudget struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	gen     uint64
	entries map[MemKey]*memEntry
	stats   MemStats
}

type memEntry struct {
	corpus *MemCorpus
	size   int64
	used   uint64 // generation of last access, for eviction
}

// NewMemBudget returns a budget bounding resident corpora to budgetBytes.
func NewMemBudget(budgetBytes int64) *MemBudget {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	return &MemBudget{budget: budgetBytes, entries: make(map[MemKey]*memEntry)}
}

// Get returns the resident corpus for k, or nil on miss, refreshing the
// entry's recency. It sits on the sweep engine's memoized replay dispatch,
// so the hit path stays allocation-free.
//
//lint:hotpath memoized replay dispatch (sweep.TestShardMemoAllocFree)
func (b *MemBudget) Get(k MemKey) *MemCorpus {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gen++
	e, ok := b.entries[k]
	if !ok {
		b.stats.Misses++
		return nil
	}
	e.used = b.gen
	b.stats.Hits++
	return e.corpus
}

// Add admits corpus c under key k, evicting least-recently-used corpora
// until it fits, and reports whether the corpus is now resident. A corpus
// larger than the whole budget is rejected without disturbing the resident
// set. Re-adding a key replaces the previous corpus.
func (b *MemBudget) Add(k MemKey, c *MemCorpus) bool {
	size := c.SizeBytes()
	b.mu.Lock()
	defer b.mu.Unlock()
	if size > b.budget {
		b.stats.Rejected++
		return false
	}
	if e, ok := b.entries[k]; ok {
		b.used -= e.size
		delete(b.entries, k)
	}
	for b.used+size > b.budget && len(b.entries) > 0 {
		b.evictOldest()
	}
	b.gen++
	b.entries[k] = &memEntry{corpus: c, size: size, used: b.gen}
	b.used += size
	return true
}

// evictOldest drops the least-recently-used entry. Called with mu held.
func (b *MemBudget) evictOldest() {
	var victim MemKey
	oldest := ^uint64(0)
	for k, e := range b.entries {
		if e.used < oldest {
			oldest = e.used
			victim = k
		}
	}
	b.used -= b.entries[victim].size
	delete(b.entries, victim)
	b.stats.Evictions++
}

// Stats returns a snapshot of the budget counters and occupancy.
func (b *MemBudget) Stats() MemStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.Resident = len(b.entries)
	st.ResidentBytes = b.used
	return st
}

// Budget returns the configured resident-byte bound.
func (b *MemBudget) Budget() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.budget
}
