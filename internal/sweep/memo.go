// Record-once/replay-many trace memoization. The block-event stream of a
// run depends only on the program — the selectors observe the stream, they
// never perturb it — and replaying a recorded stream produces
// byte-identical reports at a fraction of live interpretation cost. The
// Runner folds that in through its one corpus store (tracestream.Store),
// keyed by program content: the first run of a program interprets it once
// into a tracestream.MemRecorder, with no simulator attached
// (dynopt.Record), and that run and every later run of the program replay
// the recorded arena (Corpus.Replay). A trace:<path> file is the same
// object read from disk: it takes the same store with a decode in place of
// the recording, and streams from disk where a cell would run live. Grid
// cells and trace-file jobs — every cmd/sweep, sweepd and papertables run
// — and Runner.Simulate calls take that one step (simulate) on a pooled
// shard, so every run in internal/experiments, grid study or not, runs on
// a shard's warm scratch, selectors and recording arena.
// Memoization changes how jobs execute, never what they report. The live
// reference is a one-byte budget (NewRunnerWithBudget(1)): the store
// refuses every cell's recording, so every job of the grid runs a live
// dynopt.Run, a cell's first job after the refused recording
// (TestSweepMemoMatchesOff pins the byte-identity).
package sweep

import (
	"errors"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/tracestream"
	"repro/internal/vm"
)

// DefaultMemoBudgetBytes bounds resident corpora — memo recordings and
// decoded trace files alike — of a NewRunner:
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

// dispatch runs a job on the shard through the engine's one step
// (simulate), whatever its input. The hit path — a store lookup and a
// replay — is the steady state of a memoized grid and performs zero heap
// allocations (TestShardMemoAllocFree).
//
//lint:hotpath memoized replay dispatch (TestShardMemoAllocFree)
func (e *engine) dispatch(shard *Shard, src tracestream.Source, job Job) (metrics.Report, error) {
	cfg, err := shard.config(job)
	if err != nil {
		return metrics.Report{}, err
	}
	return job.report(simulate(e.runner.store, shard, src, cfg))
}

// Simulate runs p under the selector named sel, at default parameters, and
// cfg's cache bound, preload and i-cache, through the engine's own cell
// step (simulate) on a pooled shard: the first run of a program records it,
// and every later run of the same program, under any selector, cache bound,
// preload or i-cache, replays the recording. read, when non-nil, receives
// the full result, Cache and Collector included, before the shard goes back
// to the pool; the result's state is the shard's and is not valid after
// read returns. cfg must leave Selector, VM and Scratch unset, or Simulate
// fails before it touches the store: the shard supplies the selector and
// scratch, and the recording assumes the VM's default bounds.
func (r *Runner) Simulate(p *program.Program, sel string, cfg dynopt.Config, read func(dynopt.Result)) (metrics.Report, error) {
	if cfg.Selector != nil || cfg.VM != (vm.Config{}) || cfg.Scratch != nil {
		return metrics.Report{}, errors.New("sweep: Simulate takes no selector, VM bounds or scratch")
	}
	shard := acquireShard()
	defer releaseShard(shard)
	s, err := shard.selector(sel, core.Params{})
	if err != nil {
		return metrics.Report{}, err
	}
	cfg.Selector, cfg.Scratch = s, &shard.scratch
	res, err := simulate(r.store, shard, tracestream.Source{Key: tracestream.Key{Digest: p.Digest()}, Prog: p}, cfg)
	if err != nil {
		return metrics.Report{}, err
	}
	if read != nil {
		read(res)
	}
	return res.Report, nil
}

// simulate is the one step of every job — a grid cell, a trace-file job
// and Runner.Simulate alike: replay src's corpus when the store holds it;
// when the caller claims its key, fill the store — decode the trace file
// (FillFile) or interpret the program alone into the shard's arena
// (FillRecording) — and replay what it admitted; otherwise (another caller
// holds the claim, or the store refused the corpus) take the input's
// fallback without blocking: stream the trace file from disk, or run the
// program live. The result is identical on every branch, so a first-touch
// race costs only the replay opportunity, never correctness. A fill error
// abandons the claim and is the job's.
//
//lint:hotpath memoized replay (TestShardMemoAllocFree)
func simulate(store *tracestream.Store, shard *Shard, src tracestream.Source, cfg dynopt.Config) (dynopt.Result, error) {
	c, claimed := store.Claim(src.Key)
	if c != nil {
		return c.Replay(cfg)
	}
	var err error
	switch {
	case claimed && src.Path != "":
		c, err = store.FillFile(src)
	case claimed:
		c, err = store.FillRecording(src, cfg.Scratch, &shard.rec)
	}
	switch {
	case err != nil:
		return dynopt.Result{}, err
	case c != nil:
		return c.Replay(cfg)
	case src.Path != "":
		return shard.stream(src, cfg)
	}
	return dynopt.Run(src.Prog, cfg)
}
