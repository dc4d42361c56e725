// Record-once/replay-many trace memoization. The block-event stream of a
// run depends only on the program — the selectors observe the stream, they
// never perturb it — and replaying a recorded stream produces
// byte-identical reports at a fraction of live interpretation cost. The
// Runner folds that in through its one corpus store (tracestream.Store),
// keyed by program content: the first run of a program records it live
// with a tracestream.MemRecorder tapped off the VM (dynopt.Config.Tap), and
// every later run of it replays the recorded arena (Corpus.Replay). Grid
// cells — every cmd/sweep, sweepd and papertables run, the report-only
// extension studies included — and Runner.Simulate callers (the extension
// studies that read a run's Cache or Collector) take that one step
// (simulate). A trace:<path> file is the same object read from disk, and
// takes the same store with a decode in place of the recording.
// Memoization changes how jobs execute, never what they report. The live
// reference is a one-byte budget (Options.MemoBudgetBytes = 1): the store
// rejects every cell's first recording, so every job of the grid runs a
// live dynopt.Run (TestSweepMemoMatchesOff pins the byte-identity).
package sweep

import (
	"errors"

	"repro/internal/dynopt"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/tracestream"
	"repro/internal/vm"
)

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

// dispatch is the engine's one job path. A trace file replays when the
// store holds its corpus and otherwise goes to Miss; every cell takes the
// record-or-replay step (simulate), and runs live only when the store
// cannot hold its corpus. The hit paths — a store lookup and a replay —
// are the steady state of a memoized grid and perform zero heap
// allocations (TestShardMemoAllocFree).
//
//lint:hotpath memoized replay dispatch (TestShardMemoAllocFree)
func (e *engine) dispatch(shard *Shard, run runnable, job Job) (metrics.Report, error) {
	if run.path != "" {
		if c := e.store.Get(run.key); c != nil {
			return shard.Replay(c, job)
		}
		return e.Miss(shard, run, job)
	}
	cfg, err := shard.config(job)
	if err != nil {
		return metrics.Report{}, err
	}
	return job.report(simulate(e.store, run.key, run.prog, cfg, &shard.rec))
}

// Miss runs a trace-file job whose corpus is not resident: the shard that
// claims the key decodes and admits the file, every other one streams it
// from disk without blocking. It is exported within the package's hot-path
// discipline: decoding allocates, so it stays outside the inferred hot set.
func (e *engine) Miss(shard *Shard, run runnable, job Job) (metrics.Report, error) {
	c, claimed := e.store.Claim(run.key)
	switch {
	case c != nil:
		return shard.Replay(c, job)
	case !claimed:
		return shard.stream(run, job)
	}
	c, err := tracestream.DecodeFile(run.path, run.key, run.prog)
	if err != nil {
		e.store.Abandon(run.key)
		return metrics.Report{}, err
	}
	e.store.Admit(run.key, c)
	return shard.Replay(c, job)
}

// Simulate runs p under cfg through the engine's own cell step (simulate)
// and returns the full result, Cache and Collector included: the first run
// of a program records it, and every later run of the same program, under
// any selector, cache bound, preload or i-cache, replays the recording.
// cfg must leave VM and Tap unset, or Simulate fails: the recording assumes
// the VM's default bounds, and a replay feeds no tap.
func (r *Runner) Simulate(p *program.Program, cfg dynopt.Config) (dynopt.Result, error) {
	if cfg.VM != (vm.Config{}) || cfg.Tap != nil {
		return dynopt.Result{}, errors.New("sweep: Simulate takes no VM bounds or tap")
	}
	return simulate(r.ensureStore(0), tracestream.Key{Digest: p.Digest()}, p, cfg, new(tracestream.MemRecorder))
}

// simulate is the one record-or-replay step: replay k's corpus when it is
// resident; when the caller claims k, run p live with rec tapped off the VM
// and admit the recording; otherwise (another caller holds the claim, or
// the budget rejected the corpus) run p live without blocking. The result
// is identical on every branch, so a first-touch race costs only the
// replay opportunity, never correctness.
//
// rec is reset for the recording and keeps its arena afterwards: the
// engine passes its shard's recorder, so a shard records into an arena an
// earlier recording already grew, and the corpus costs one exact-size copy.
// A recording the store rejects as larger than its whole budget drops the
// arena, so a shard keeps no arena grown for a recording that no store
// had room for.
//
//lint:hotpath memoized replay (TestShardMemoAllocFree)
func simulate(store *tracestream.Store, k tracestream.Key, p *program.Program, cfg dynopt.Config, rec *tracestream.MemRecorder) (dynopt.Result, error) {
	if c := store.Get(k); c != nil {
		return c.Replay(cfg)
	}
	c, claimed := store.Claim(k)
	switch {
	case c != nil:
		return c.Replay(cfg)
	case !claimed:
		return dynopt.Run(p, cfg)
	}
	rec.Reset(p, "", 0)
	cfg.Tap = rec
	res, err := dynopt.Run(p, cfg)
	if err != nil {
		store.Abandon(k)
		return dynopt.Result{}, err
	}
	if !store.Admit(k, &rec.Corpus(res.VMStats).Corpus) {
		*rec = tracestream.MemRecorder{}
	}
	return res, nil
}
