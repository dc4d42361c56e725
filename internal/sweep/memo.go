// Record-once/replay-many trace memoization. PR 8 proved the branch-event
// stream of a grid cell depends only on its (workload, scale) pair — the
// selectors observe the stream, they never perturb it — and that replaying
// a recorded stream produces byte-identical reports at a fraction of live
// interpretation cost. The memo layer folds that back into the engine: the
// first job touching a cell runs live with a tracestream.MemRecorder tapped
// off the VM (dynopt.Config.Tap), every later job for the cell replays the
// recorded arena through Shard.Replay. Memoization changes how jobs
// execute, never what they report (TestSweepMemoMatchesOff pins the jsonl
// byte-identity).
package sweep

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/tracestream"
)

// MemoMode switches trace memoization. The zero value is MemoOn: callers
// using Options{} — the experiments harness, sweepd workers, cmd/sweep —
// memoize by default and opt out explicitly.
type MemoMode int

const (
	// MemoOn records each (workload, scale) cell's event stream on first
	// touch and replays it for every subsequent job of the cell.
	MemoOn MemoMode = iota
	// MemoOff runs every job live — the escape hatch (cmd/sweep -memo=off)
	// and the differential baseline.
	MemoOff
)

// ParseMemoMode parses a CLI memoization switch: "on" or "off"
// (cmd/sweep -memo, cmd/sweepd -memo).
func ParseMemoMode(s string) (MemoMode, error) {
	switch s {
	case "on":
		return MemoOn, nil
	case "off":
		return MemoOff, nil
	}
	return MemoOn, fmt.Errorf("bad memo mode %q (want on or off)", s)
}

// DefaultMemoBudgetBytes bounds resident memoized corpora when
// Options.MemoBudgetBytes is zero: 256 MiB ≈ 11M block events — two orders
// of magnitude above the paper grid's working set, small next to the
// interpretation it saves. Cells that exceed the budget degrade to live
// execution; nothing breaks, the cell just stops being cheap.
const DefaultMemoBudgetBytes = 256 << 20

// MemoStats is a snapshot of the memo layer's counters.
type MemoStats struct {
	// Hits is the number of jobs served by replaying a resident corpus.
	Hits uint64
	// Misses is the number of jobs that found no resident corpus for
	// their cell: each either recorded the cell or fell back to live.
	Misses uint64
	// Fallbacks is the subset of misses that ran live without recording —
	// another shard held the cell's recording claim, or the budget had
	// already rejected the cell's corpus as too big.
	Fallbacks uint64
	// Evictions and Rejected are the budget's admission outcomes.
	Evictions uint64
	Rejected  uint64
	// Resident and ResidentBytes describe current corpus occupancy.
	Resident      int
	ResidentBytes int64
}

// memoTable is a Runner's record-once/replay-many state: the byte-budgeted
// corpus LRU plus the singleflight bookkeeping that ensures exactly one
// shard records a cell while concurrent first-touchers fall back to live
// execution instead of blocking. It persists across runs like the shard
// pool, so a sweepd worker's later ranges replay cells its earlier ranges
// recorded.
type memoTable struct {
	budget *tracestream.MemBudget

	mu sync.Mutex
	// recording marks cells a shard is currently taping; dead marks cells
	// whose corpus the budget rejected outright, so they are never taped
	// again.
	recording map[progKey]bool
	dead      map[progKey]bool
	fallbacks uint64
}

func newMemoTable(budgetBytes int64) *memoTable {
	if budgetBytes <= 0 {
		budgetBytes = DefaultMemoBudgetBytes
	}
	return &memoTable{
		budget:    tracestream.NewMemBudget(budgetBytes),
		recording: make(map[progKey]bool),
		dead:      make(map[progKey]bool),
	}
}

// run dispatches one memoizable job: replay when the cell's corpus is
// resident, otherwise record or fall back via Record. The hit path — a
// budget lookup and a shard replay — is the steady state of a memoized
// grid and performs zero heap allocations (TestShardMemoAllocFree).
//
//lint:hotpath memoized replay dispatch (TestShardMemoAllocFree)
func (m *memoTable) run(shard *Shard, p *program.Program, job Job) (metrics.Report, error) {
	if c := m.budget.Get(tracestream.MemKey{Workload: job.Workload, Scale: job.Scale}); c != nil {
		return shard.Replay(&c.Corpus, job)
	}
	return m.Record(shard, p, job)
}

// Record handles a memo miss: the shard that wins the cell's recording
// claim runs the job live with a MemRecorder tapped off the VM and
// publishes the sealed corpus to the budget; losers run plain live — the
// report is identical either way, so first-touch races cost only the
// memoization opportunity, never correctness or blocking. The method is
// exported within the package's hot-path discipline: recording allocates
// (the event arena), so it must stay outside the inferred hot set — only
// run's replay dispatch above is hot.
func (m *memoTable) Record(shard *Shard, p *program.Program, job Job) (metrics.Report, error) {
	key := progKey{job.Workload, job.Scale}
	if !m.claim(key) {
		return shard.Run(p, job)
	}
	rec := tracestream.NewMemRecorder(p, job.Workload, job.Scale)
	res, err := shard.run(p, nil, job, rec)
	if err != nil {
		m.release(key, false)
		return metrics.Report{}, err
	}
	admitted := m.budget.Add(tracestream.MemKey{Workload: job.Workload, Scale: job.Scale}, rec.Corpus(res.VMStats))
	// A corpus the budget cannot hold at all would be re-taped on every
	// future miss of the cell; marking the cell dead degrades it to plain
	// live execution instead.
	m.release(key, !admitted)
	return res.Report, nil
}

// claim takes the recording claim for a cell. A false return means another
// shard is taping it or the cell is dead — the caller runs live, counted
// as a fallback.
func (m *memoTable) claim(key progKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recording[key] || m.dead[key] {
		m.fallbacks++
		return false
	}
	m.recording[key] = true
	return true
}

// release drops a cell's recording claim, marking the cell dead when its
// corpus was rejected.
func (m *memoTable) release(key progKey, dead bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.recording, key)
	if dead {
		m.dead[key] = true
	}
}

// stats snapshots the layer's counters.
func (m *memoTable) stats() MemoStats {
	bs := m.budget.Stats()
	m.mu.Lock()
	fb := m.fallbacks
	m.mu.Unlock()
	return MemoStats{
		Hits:          bs.Hits,
		Misses:        bs.Misses,
		Fallbacks:     fb,
		Evictions:     bs.Evictions,
		Rejected:      bs.Rejected,
		Resident:      bs.Resident,
		ResidentBytes: bs.ResidentBytes,
	}
}
