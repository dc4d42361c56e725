// Record-once/replay-many trace memoization. The block-event stream of a
// grid cell depends only on its (workload, scale) pair — the selectors
// observe the stream, they never perturb it — and replaying a recorded
// stream produces byte-identical reports at a fraction of live
// interpretation cost. The engine folds that in through the Runner's one
// corpus store (tracestream.Store): the first job touching a cell runs live
// with a tracestream.MemRecorder tapped off the VM (dynopt.Config.Tap), and
// every later job for the cell replays the recorded arena through
// Shard.Replay. A trace:<path> file is the same object read from disk, and
// takes the same path with a decode in place of the recording. Memoization
// changes how jobs execute, never what they report
// (TestSweepMemoMatchesOff pins the jsonl byte-identity).
package sweep

import (
	"fmt"

	"repro/internal/metrics"
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
	// MemoOff runs every registered-workload job live — the escape hatch
	// (cmd/sweep -memo=off) and the differential baseline. Trace files
	// still go through the store.
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

// DefaultMemoBudgetBytes bounds resident corpora — memo recordings and
// decoded trace files alike — when Options.MemoBudgetBytes is zero:
// 256 MiB ≈ 11M block events, two orders of magnitude above the paper
// grid's working set and small next to the interpretation it saves. A
// corpus that exceeds the budget degrades its jobs to the fallback (live
// for a cell, streaming from disk for a file); nothing breaks, the jobs
// just stop being cheap.
const DefaultMemoBudgetBytes = 256 << 20

// MemoStats is a snapshot of the Runner's corpus-store counters; trace-file
// lookups count alongside memo cells. String renders the stats line
// cmd/sweep -v and sweepd print.
type MemoStats = tracestream.StoreStats

// dispatch is the engine's one job path: replay the job's corpus when the
// store holds it, otherwise hand over to Miss. Under MemoOff a cell skips
// the store and runs live. The hit path — a store lookup and a shard
// replay — is the steady state of a memoized grid and performs zero heap
// allocations (TestShardMemoAllocFree).
//
//lint:hotpath memoized replay dispatch (TestShardMemoAllocFree)
func (e *engine) dispatch(shard *Shard, run runnable, job Job) (metrics.Report, error) {
	if e.memo || run.path != "" {
		if c := e.store.Get(run.key); c != nil {
			return shard.Replay(c, job)
		}
		return e.Miss(shard, run, job)
	}
	return shard.Run(run.prog, job)
}

// Miss runs a job whose corpus is not resident. The shard that claims the
// key fills the store (fill); every other shard — and every job of a key
// whose corpus the budget rejected — takes the fallback without blocking:
// a cell runs live, a trace file streams from disk at constant memory. The
// report is identical either way, so first-touch races cost only the
// replay opportunity, never correctness. The method is exported within the
// package's hot-path discipline: filling allocates (the recorded arena, the
// decoded corpus), so it must stay outside the inferred hot set — only
// dispatch's hit path above is hot.
func (e *engine) Miss(shard *Shard, run runnable, job Job) (metrics.Report, error) {
	c, claimed := e.store.Claim(run.key)
	switch {
	case c != nil:
		return shard.Replay(c, job)
	case claimed:
		return e.fill(shard, run, job)
	case run.path != "":
		return shard.stream(run, job)
	}
	return shard.Run(run.prog, job)
}

// fill builds the corpus of a claimed key — decoding a trace file, or
// recording a cell live with a MemRecorder tapped off the VM — admits it,
// and serves the job from it. A corpus the budget rejects still serves this
// job; the key's later jobs fall back.
func (e *engine) fill(shard *Shard, run runnable, job Job) (metrics.Report, error) {
	if run.path != "" {
		c, err := tracestream.DecodeFile(run.path, run.key, run.prog)
		if err != nil {
			e.store.Abandon(run.key)
			return metrics.Report{}, err
		}
		e.store.Admit(run.key, c)
		return shard.Replay(c, job)
	}
	rec := tracestream.NewMemRecorder(run.prog, job.Workload, job.Scale)
	res, err := shard.run(run.prog, nil, nil, job, rec)
	if err != nil {
		e.store.Abandon(run.key)
		return metrics.Report{}, err
	}
	e.store.Admit(run.key, &rec.Corpus(res.VMStats).Corpus)
	return res.Report, nil
}
