// Package sweep is the sharded parameter-sweep engine: it executes an
// arbitrary (workload × selector × params) grid across a set of worker
// shards with context-based fail-fast cancellation and bounded-memory
// streaming result delivery in deterministic grid order. Shards claim
// chunks — one workload's cells, at most maxChunk of them, or fewer when
// the range is too small to give every shard a workload — from one shared
// cursor in grid order, so a workload whose cells fit one chunk is recorded
// by one shard and the reorder window is shards chunks wide.
//
// The paper's evaluation is a parameter study — selector behavior under
// varying thresholds, history-buffer sizes, and cache bounds — and the
// engine is built so such studies are pure compute: each shard owns one
// dynopt.Scratch (interpreter, simulator, collector, analyzer, code cache),
// a pool of Resettable selectors and a recording arena, programs are built
// once and shared read-only across shards, and the reorder ring reuses its
// slots, so a shard's steady-state job loop performs zero heap allocations
// (enforced by TestShardSteadyStateAllocFree). Shards are process-wide:
// every run acquires them from one idle list and returns them to it, so the
// throwaway Runner of each RunGrid call starts with warm shards.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/tracestream"
	"repro/internal/workloads"
)

// Job is one cell of a sweep grid.
type Job struct {
	// Workload is a registered workload name (see internal/workloads) or a
	// trace-corpus reference ("trace:<path>", see internal/tracestream):
	// the recorded stream replays through the selectors instead of the VM
	// interpreting the program. Scale is ignored for trace references — the
	// recording fixes it.
	Workload string
	// Scale is the workload scale multiplier (<=0 selects the default).
	Scale int
	// Selector is a selector configuration name (see NewSelector).
	Selector string
	// Params are the selection-algorithm tunables for this cell.
	Params core.Params
	// CacheLimitBytes bounds the code cache; zero means unbounded.
	CacheLimitBytes int
}

// Config is one (params, cache bound) point of a grid.
type Config struct {
	Params          core.Params
	CacheLimitBytes int
}

// Grid enumerates the cross product workloads × configs × selectors in a
// deterministic order: workload-major, then config, then selector. Job
// indices — and therefore result delivery order — follow this enumeration.
type Grid struct {
	Workloads []string
	Scale     int
	Selectors []string
	// Configs are the parameter points; nil means one all-defaults config.
	Configs []Config
}

// Jobs materializes the grid's job list in enumeration order.
func (g Grid) Jobs() []Job {
	jobs := make([]Job, g.NumJobs())
	for i := range jobs {
		jobs[i] = g.JobAt(i)
	}
	return jobs
}

// numConfigs is the config-axis length; an empty Configs list means one
// all-defaults config.
func (g Grid) numConfigs() int {
	if len(g.Configs) == 0 {
		return 1
	}
	return len(g.Configs)
}

// NumJobs returns the size of the grid's enumeration without materializing
// it.
func (g Grid) NumJobs() int {
	return len(g.Workloads) * g.PerWorkload()
}

// PerWorkload returns the number of cells of each workload, which are
// contiguous in the enumeration: one per config and selector.
func (g Grid) PerWorkload() int {
	return g.numConfigs() * len(g.Selectors)
}

// JobAt returns cell i of the enumeration Jobs materializes — workload-major,
// then config, then selector — without building the job list, so grids of
// millions of cells can be walked by index. The distributed coordinator
// (internal/sweepnet) assigns contiguous index ranges over the wire and
// workers rebuild the jobs locally from the grid with this.
func (g Grid) JobAt(i int) Job {
	perWorkload := g.PerWorkload()
	var c Config
	if len(g.Configs) > 0 {
		c = g.Configs[i%perWorkload/len(g.Selectors)]
	}
	return Job{
		Workload:        g.Workloads[i/perWorkload],
		Scale:           g.Scale,
		Selector:        g.Selectors[i%len(g.Selectors)],
		Params:          c.Params,
		CacheLimitBytes: c.CacheLimitBytes,
	}
}

// Options tunes the engine.
type Options struct {
	// Shards is the number of worker shards; <=0 means GOMAXPROCS.
	Shards int
}

// Shard is the per-worker execution state: one pooled dynopt.Scratch, a
// pool of Resettable selectors keyed by configuration name, a trace-file
// reader and a recording arena. After warm-up (first job per
// workload/selector shape), Run performs zero heap allocations per job for
// all four paper selectors — the combining ones store observed traces in a
// per-Combiner arena and reuse one pooled RegionCFG (see
// docs/PERFORMANCE.md).
//
// A shard holds nothing of the Runner that ran it, so the engine keeps idle
// shards in one process-wide list (acquireShard). While idle a shard
// retains its warm state: the VM's data memory (8 MiB at the default
// MemWords) and predecoded code, the code cache, collector and analyzer
// tables, its selectors, the reader's buffers, the recorder's arena — at
// most the largest recording a store admitted, plus append slack — and a
// reference to the last program it ran.
type Shard struct {
	scratch   dynopt.Scratch
	selectors map[string]core.Selector
	//lint:keep streaming buffers; stream re-targets the reader per job
	reader tracestream.Reader
	rec    tracestream.MemRecorder

	// base is the first job of the chunk the shard is running, and cells,
	// reports and spans hold each of its jobs' sharing key, report and
	// history span, indexed from base (see engine.process). Fixed arrays:
	// a chunk holds at most maxChunk jobs.
	base    int
	cells   [maxChunk]cellKey
	reports [maxChunk]metrics.Report
	spans   [maxChunk]profile.Span
}

// cellKey is what a cell's report depends on besides its program, its
// selector and its history capacity: the other parameters its selector
// reads and its cache bound. The capacity is matched by span instead (see
// engine.process).
type cellKey struct {
	params core.Params
	limit  int
}

// NewShard returns an empty shard.
func NewShard() *Shard {
	return &Shard{selectors: make(map[string]core.Selector)}
}

// selector returns a selector for the job, recycling a pooled Resettable
// instance when one exists.
func (s *Shard) selector(name string, params core.Params) (core.Selector, error) {
	if sel, ok := s.selectors[name]; ok {
		sel.(core.Resettable).Reset(params)
		return sel, nil
	}
	sel, err := NewSelector(name, params)
	if err != nil {
		return nil, err
	}
	if _, ok := sel.(core.Resettable); ok {
		s.selectors[name] = sel
	}
	return sel, nil
}

// Run executes one job on the shard, live. The program must be the built
// form of job.Workload at job.Scale; it is read-only during the run and may
// be shared across shards. The engine runs every job through its one step
// (simulate); Run is kept for the benchmark module, which times the live
// shard path through it, and for tests.
//
//lint:hotpath steady-state shard job loop (TestShardSteadyStateAllocFree)
func (s *Shard) Run(p *program.Program, job Job) (metrics.Report, error) {
	cfg, err := s.config(job)
	if err != nil {
		return metrics.Report{}, err
	}
	return job.report(dynopt.Run(p, cfg))
}

// Replay executes one job against a trace corpus instead of a live program
// (Corpus.Replay), so the VM never runs. The corpus is read-only during the
// run and may be shared across shards. The engine replays through its one
// step (simulate); Replay is kept for the benchmark module, which times the
// replay stage through it, and for tests.
//
//lint:hotpath steady-state shard job loop (TestShardSteadyStateAllocFree)
func (s *Shard) Replay(c *tracestream.Corpus, job Job) (metrics.Report, error) {
	cfg, err := s.config(job)
	if err != nil {
		return metrics.Report{}, err
	}
	return job.report(c.Replay(cfg))
}

// config is the job's run configuration on the shard's pooled selector and
// scratch.
func (s *Shard) config(job Job) (dynopt.Config, error) {
	sel, err := s.selector(job.Selector, job.Params)
	if err != nil {
		return dynopt.Config{}, err
	}
	return dynopt.Config{Selector: sel, CacheLimitBytes: job.CacheLimitBytes, Scratch: &s.scratch}, nil
}

// report stamps the job's workload on a run's report.
func (job Job) report(res dynopt.Result, err error) (metrics.Report, error) {
	if err != nil {
		return metrics.Report{}, err
	}
	res.Report.Workload = job.Workload
	return res.Report, nil
}

// stream executes one trace-file job straight from disk: the shard's
// reader feeds the file's events batch by batch, so the run holds constant
// memory and never decodes the stream whole — the fallback for a trace
// whose corpus is not resident.
func (s *Shard) stream(src tracestream.Source, cfg dynopt.Config) (dynopt.Result, error) {
	f, err := os.Open(src.Path)
	if err != nil {
		return dynopt.Result{}, err
	}
	defer f.Close()
	if err := s.reader.Reset(f); err != nil {
		return dynopt.Result{}, fmt.Errorf("%w (file %s)", err, src.Path)
	}
	h := s.reader.Header()
	if err := h.CheckProgram(src.Prog); err != nil {
		return dynopt.Result{}, fmt.Errorf("%w (file %s)", err, src.Path)
	}
	return dynopt.RunStream(src.Prog, cfg, s.reader.Feed)
}

// progCache resolves each distinct (workload, scale) once and shares the
// result across shards: programs are immutable after Build (every index is
// precomputed), so concurrent runs only read them. A trace reference
// resolves to its verified program and content key, never to its events —
// those live in the Runner's store, under its budget.
type progCache struct {
	mu sync.Mutex
	m  map[progKey]tracestream.Source
}

type progKey struct {
	name  string
	scale int
}

func (pc *progCache) get(name string, scale int) (tracestream.Source, error) {
	if tracestream.IsRef(name) {
		// The recording fixes the scale; normalize the key so every scale
		// maps to the one decoded corpus.
		scale = 0
	}
	key := progKey{name, scale}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if r, ok := pc.m[key]; ok {
		return r, nil
	}
	var r tracestream.Source
	if tracestream.IsRef(name) {
		var err error
		if r, err = tracestream.ResolveRef(name); err != nil {
			return tracestream.Source{}, fmt.Errorf("sweep: %w", err)
		}
	} else {
		w, ok := workloads.Get(name)
		if !ok {
			return tracestream.Source{}, fmt.Errorf("sweep: unknown workload %q", name)
		}
		p := w.Build(scale)
		r = tracestream.Source{Key: tracestream.Key{Digest: p.Digest()}, Prog: p}
	}
	if pc.m == nil {
		pc.m = make(map[progKey]tracestream.Source)
	}
	pc.m[key] = r
	return r, nil
}

// Runner owns the per-study state of the sweep engine — the built-program
// cache and the corpus store — so successive runs (whole grids, or
// contiguous ranges of one large grid) keep their once-built programs and
// resident corpora across calls. It owns no shards: its runs take them from
// the process-wide idle list (acquireShard), so even a fresh Runner runs on
// warm shards. It is safe for concurrent use; a sweepd worker keeps one
// Runner for its whole lifetime so every job range it executes replays the
// same corpora. Build one with NewRunner or NewRunnerWithBudget, which fix
// its store's budget for its lifetime.
type Runner struct {
	progs progCache
	store *tracestream.Store
	// shared counts the jobs answered from a leader's report.
	shared atomic.Uint64
}

// NewRunner returns an empty runner whose corpus store holds
// DefaultMemoBudgetBytes; programs are built on first use and kept
// thereafter.
func NewRunner() *Runner { return NewRunnerWithBudget(0) }

// NewRunnerWithBudget returns an empty runner whose corpus store bounds its
// resident corpora — memo recordings and decoded trace files alike — to
// budgetBytes (<= 0 means DefaultMemoBudgetBytes). A cell whose corpus
// cannot fit runs live, a trace file streams from disk; a budget of 1 runs
// every job live, the memo layer's reference.
func NewRunnerWithBudget(budgetBytes int64) *Runner {
	if budgetBytes <= 0 {
		budgetBytes = DefaultMemoBudgetBytes
	}
	return &Runner{store: tracestream.NewStore(budgetBytes)}
}

// idleList is a process-wide list of idle pooled values. It is a plain
// list, not a sync.Pool: a sync.Pool drops its entries at every garbage
// collection, and a single pass of a grid triggers several.
type idleList[T any] struct {
	mu   sync.Mutex
	idle []T
}

// pop removes the most recently pushed value; ok is false when none is
// idle.
func (l *idleList[T]) pop() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.idle); n > 0 {
		x, ok = l.idle[n-1], true
		l.idle = l.idle[:n-1]
	}
	return x, ok
}

// push adds an idle value.
func (l *idleList[T]) push(x T) {
	l.mu.Lock()
	l.idle = append(l.idle, x)
	l.mu.Unlock()
}

// shardPool holds the idle shards. Every engine worker pops one on start
// and pushes it back on exit, so the list holds at most the peak number of
// shards that ran at once.
var shardPool idleList[*Shard]

// acquireShard pops an idle shard, building one when none is idle.
func acquireShard() *Shard {
	if s, ok := shardPool.pop(); ok {
		return s
	}
	return NewShard()
}

// releaseShard returns a shard to the idle list.
func releaseShard(s *Shard) { shardPool.push(s) }

// MemoStats snapshots the runner's corpus-store counters (zero before any
// run).
func (r *Runner) MemoStats() MemoStats { return r.store.Stats() }

// Shared returns how many of the runner's jobs were answered with an
// earlier cell's report instead of a simulation (see engine.process).
func (r *Runner) Shared() uint64 { return r.shared.Load() }

// maxChunk bounds a chunk, the unit of work an engine worker claims: one
// workload's cells (configs × selectors), in pieces of at most maxChunk, or
// smaller ones in a short range (see newEngine). A workload whose cells fit
// one chunk runs on one shard, which records its program once.
const maxChunk = 64

type engine struct {
	ctx    context.Context
	cancel context.CancelFunc
	grid   Grid
	runner *Runner
	del    *OrderedSink
	shards int
	// [lo, hi) is the run's range; each workload's perWorkload cells split
	// into perChunks chunks of chunk cells, and next is the lowest
	// unclaimed chunk.
	lo, hi, perWorkload, chunk, perChunks int
	next                                  atomic.Int64
	// reads is, per position in the grid's Selectors, the params fields
	// that selector reads.
	reads []paramSet

	mu   sync.Mutex
	errs []error
}

// RunGrid executes the grid's cells across opts.Shards worker shards with a
// throwaway Runner, streaming results to sink in grid-enumeration order.
func RunGrid(ctx context.Context, g Grid, opts Options, sink ResultSink) error {
	return NewRunner().RunGrid(ctx, g, opts, sink)
}

// RunGrid executes the grid's cells with the runner's pooled state,
// walking the enumeration by index rather than materializing it, and
// streams results to sink in grid-enumeration order. It fails fast: the
// first job error (or a cancellation of ctx) stops the whole grid, dropping
// undelivered results, and every error observed before the stop is
// aggregated with errors.Join in deterministic order.
func (r *Runner) RunGrid(ctx context.Context, g Grid, opts Options, sink ResultSink) error {
	return r.RunRange(ctx, g, 0, g.NumJobs(), opts, sink)
}

// RunRange executes cells [lo, hi) of the grid's enumeration. Results carry
// their global grid indices, so a caller (the distributed worker) executing
// disjoint ranges of one grid can merge the streams back into full-grid
// order.
func (r *Runner) RunRange(ctx context.Context, g Grid, lo, hi int, opts Options, sink ResultSink) error {
	if n := g.NumJobs(); lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("sweep: range [%d,%d) outside grid of %d jobs", lo, hi, n)
	}
	if lo == hi {
		return ctx.Err()
	}
	e := r.newEngine(ctx, g, lo, hi, opts, sink)
	return e.drive(ctx, e.process)
}

// newEngine sizes a run of the non-empty range [lo, hi). A chunk is a whole
// workload when the range holds at least one per shard; a smaller range
// (a sweepd worker's slice of a grid, say) cuts its workloads into chunks
// of about (hi-lo)/shards cells, so every shard still has one to run.
func (r *Runner) newEngine(ctx context.Context, g Grid, lo, hi int, opts Options, sink ResultSink) *engine {
	if sink == nil {
		sink = nopSink{}
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	pw := g.PerWorkload()
	chunk := min(maxChunk, pw, (hi-lo+shards-1)/shards)
	e := &engine{
		grid:        g,
		lo:          lo,
		hi:          hi,
		perWorkload: pw,
		chunk:       chunk,
		perChunks:   (pw + chunk - 1) / chunk,
		runner:      r,
		reads:       make([]paramSet, len(g.Selectors)),
	}
	for i, name := range g.Selectors {
		e.reads[i] = paramReads[name]
	}
	e.ctx, e.cancel = context.WithCancel(ctx)
	first := e.chunkOf(lo)
	e.next.Store(int64(first))
	e.shards = min(shards, e.chunkOf(hi-1)-first+1)
	e.del = acquireRing(lo, e.shards*chunk, sink)
	return e
}

// drive runs do on every cell of the range, one worker per shard, and
// returns the run's error; ctx is the caller's, the parent of e.ctx. The
// ring goes back to the idle list unless a cancellation may still be
// waking it.
func (e *engine) drive(ctx context.Context, do func(i int, shard *Shard)) error {
	defer e.cancel()
	// Wake shards blocked on delivery backpressure when the run is
	// cancelled (externally or by a failing job).
	stop := context.AfterFunc(e.ctx, e.del.Cancel)
	defer func() {
		if stop() {
			releaseRing(e.del)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < e.shards; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.worker(do)
		}()
	}
	wg.Wait()
	if errs := e.errs; len(errs) > 0 {
		// Report every broken cell observed before the stop, ordered
		// deterministically since shards race.
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return errors.Join(errs...)
	}
	return ctx.Err()
}

// worker claims chunks from the engine's one cursor, in increasing order,
// and runs do on each chunk's jobs in index order. Every chunk below the
// frontier job's is delivered, so the frontier's chunk is claimed, and its
// owner's current job is the frontier itself: that delivery never blocks,
// and the engine cannot deadlock. The shards × chunk window only sets how
// far ahead the other shards may run before they wait for the frontier.
func (e *engine) worker(do func(i int, shard *Shard)) {
	shard := acquireShard()
	defer releaseShard(shard)
	for e.ctx.Err() == nil {
		c := int(e.next.Add(1) - 1)
		w := c / e.perChunks
		a := w*e.perWorkload + c%e.perChunks*e.chunk
		if a >= e.hi {
			return
		}
		b := min(a+e.chunk, (w+1)*e.perWorkload, e.hi)
		shard.base = max(a, e.lo)
		for i := shard.base; i < b && e.ctx.Err() == nil; i++ {
			do(i, shard)
		}
	}
}

// chunkOf returns the number of the chunk holding job i.
func (e *engine) chunkOf(i int) int {
	return i/e.perWorkload*e.perChunks + i%e.perWorkload/e.chunk
}

// process runs job i, the shard's next job in its chunk. A job whose
// leader ran before it is answered with a copy of the leader's report and
// simulates nothing. The leader is the chunk's lowest simulated job of the
// same selector, the same cache bound and the same values of the params
// fields that selector reads, HistoryCap aside, whose history span holds
// this job's effective HistoryCap: the chunk is one workload's, so the two
// cells replay one event stream under selectors that decide alike, and
// the span is every capacity under which the leader's run would have run
// as it did. It shares only while the store holds the program's corpus, so
// a run whose corpora the store rejects or evicts simulates every job: the
// one-byte-budget live reference stays an independent oracle for
// paramReads and the spans.
//
//lint:hotpath per-job engine loop
func (e *engine) process(i int, shard *Shard) {
	job := e.grid.JobAt(i)
	src, err := e.runner.progs.get(job.Workload, job.Scale)
	if err != nil {
		e.fail(err)
		return
	}
	k := i - shard.base
	reads := e.reads[i%len(e.grid.Selectors)]
	shard.cells[k] = cellKey{(reads &^ pHistoryCap).project(job.Params), job.CacheLimitBytes}
	var rep metrics.Report
	span := noSpan
	if l := shard.leader(k, len(e.grid.Selectors), historyCap(job.Params)); l < k && e.runner.store.Holds(src.Key) {
		rep = shard.reports[l]
		e.runner.shared.Add(1)
	} else if rep, err = e.dispatch(shard, src, job); err != nil {
		e.fail(fmt.Errorf("sweep: %s under %s: %w", job.Workload, job.Selector, err))
		return
	} else {
		span = shard.span(job, reads)
	}
	shard.reports[k] = rep
	shard.spans[k] = span
	e.del.Deliver(Result{Index: i, Job: job, Report: rep})
}

// noSpan holds no capacity: a shared job stores it, so it never leads.
var noSpan = profile.Span{Lo: 1, Hi: 0}

// historyCap is the capacity a selector's history buffer gets from p:
// HistoryCap, or the paper's default when it is unset.
func historyCap(p core.Params) int {
	if p.HistoryCap > 0 {
		return p.HistoryCap
	}
	return core.DefaultParams().HistoryCap
}

// span returns the history span of the job the shard just simulated: the
// one its pooled selector reports when the selector reads HistoryCap, and
// every capacity when it does not. A selector that reads HistoryCap but
// reports no span holds its own capacity alone.
func (s *Shard) span(job Job, reads paramSet) profile.Span {
	if reads&pHistoryCap == 0 {
		return profile.FullSpan
	}
	if h, ok := s.selectors[job.Selector].(core.HistorySpanner); ok {
		return h.HistorySpan()
	}
	c := historyCap(job.Params)
	return profile.Span{Lo: c, Hi: c}
}

// leader returns the chunk index of the lowest job of the running chunk
// whose selector (the same position in a grid of nsel selectors) and
// sharing key match job k's and whose span holds job k's effective history
// capacity; k itself when none before it does.
func (s *Shard) leader(k, nsel, capacity int) int {
	for l := k % nsel; l < k; l += nsel {
		if s.cells[l] == s.cells[k] && s.spans[l].Contains(capacity) {
			return l
		}
	}
	return k
}

// fail records a job error and stops the grid.
func (e *engine) fail(err error) {
	e.mu.Lock()
	e.errs = append(e.errs, err)
	e.mu.Unlock()
	e.cancel()
}
