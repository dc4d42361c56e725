// Package sweep is the sharded parameter-sweep engine: it executes an
// arbitrary (workload × selector × params) grid across a set of worker
// shards with work stealing, context-based fail-fast cancellation, and
// bounded-memory streaming result delivery in deterministic grid order.
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

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/metrics"
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
	return len(g.Workloads) * g.numConfigs() * len(g.Selectors)
}

// JobAt returns cell i of the enumeration Jobs materializes — workload-major,
// then config, then selector — without building the job list, so grids of
// millions of cells can be walked by index. The distributed coordinator
// (internal/sweepnet) assigns contiguous index ranges over the wire and
// workers rebuild the jobs locally from the grid with this.
func (g Grid) JobAt(i int) Job {
	perWorkload := g.numConfigs() * len(g.Selectors)
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
	// Window bounds the reorder ring: a shard may run at most Window jobs
	// ahead of the oldest undelivered one. <=0 means 4 × shards. Memory
	// held for undelivered results is Window × sizeof(Result) regardless of
	// grid size.
	Window int
	// MemoBudgetBytes bounds the Runner's resident corpora — memo
	// recordings and decoded trace files alike; <=0 means
	// DefaultMemoBudgetBytes. Cells whose corpus cannot fit degrade to live
	// execution, trace files to streaming from disk; a budget of 1 runs
	// every cell live. Only the run that creates the Runner's store
	// (ensureStore) fixes its budget: later runs on the same Runner ignore
	// this value.
	MemoBudgetBytes int64
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

// Run executes one job on the shard. The program must be the built form of
// job.Workload at job.Scale; it is read-only during the run and may be
// shared across shards.
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
// run and may be shared across shards.
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
func (s *Shard) stream(run runnable, job Job) (metrics.Report, error) {
	f, err := os.Open(run.path)
	if err != nil {
		return metrics.Report{}, err
	}
	defer f.Close()
	if err := s.reader.Reset(f); err != nil {
		return metrics.Report{}, fmt.Errorf("%w (file %s)", err, run.path)
	}
	h := s.reader.Header()
	if err := h.CheckProgram(run.prog); err != nil {
		return metrics.Report{}, fmt.Errorf("%w (file %s)", err, run.path)
	}
	cfg, err := s.config(job)
	if err != nil {
		return metrics.Report{}, err
	}
	return job.report(dynopt.RunStream(run.prog, cfg, s.reader.Feed))
}

// runnable is a resolved job input: the built (or, for a trace reference,
// verified) program and the job's corpus-store key. path is the stream
// file of a trace reference and empty for a registered workload.
type runnable struct {
	prog *program.Program
	key  tracestream.Key
	path string
}

// progCache resolves each distinct (workload, scale) once and shares the
// result across shards: programs are immutable after Build (every index is
// precomputed), so concurrent runs only read them. A trace reference
// resolves to its verified program and content key, never to its events —
// those live in the Runner's store, under its budget.
type progCache struct {
	mu sync.Mutex
	m  map[progKey]runnable
}

type progKey struct {
	name  string
	scale int
}

func (pc *progCache) get(name string, scale int) (runnable, error) {
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
	var r runnable
	if tracestream.IsRef(name) {
		k, p, err := tracestream.ResolveRef(name)
		if err != nil {
			return runnable{}, fmt.Errorf("sweep: %w", err)
		}
		r = runnable{prog: p, key: k, path: tracestream.RefPath(name)}
	} else {
		w, ok := workloads.Get(name)
		if !ok {
			return runnable{}, fmt.Errorf("sweep: unknown workload %q", name)
		}
		p := w.Build(scale)
		r = runnable{prog: p, key: tracestream.Key{Digest: p.Digest()}}
	}
	if pc.m == nil {
		pc.m = make(map[progKey]runnable)
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
// same corpora.
type Runner struct {
	mu    sync.Mutex
	progs progCache
	store *tracestream.Store
}

// NewRunner returns an empty runner; programs are built on first use and
// kept thereafter.
func NewRunner() *Runner { return &Runner{} }

// shardPool is the process-wide list of idle shards. Every engine worker
// pops one on start and pushes it back on exit, so the list holds at most
// the peak number of shards that ran at once. It is a plain list, not a
// sync.Pool: a sync.Pool drops its entries at every garbage collection, and
// a single pass of a grid triggers several.
var shardPool struct {
	mu   sync.Mutex
	idle []*Shard
}

// acquireShard pops an idle shard, building one when none is idle.
func acquireShard() *Shard {
	shardPool.mu.Lock()
	defer shardPool.mu.Unlock()
	if n := len(shardPool.idle); n > 0 {
		s := shardPool.idle[n-1]
		shardPool.idle = shardPool.idle[:n-1]
		return s
	}
	return NewShard()
}

// releaseShard returns a shard to the idle list.
func releaseShard(s *Shard) {
	shardPool.mu.Lock()
	shardPool.idle = append(shardPool.idle, s)
	shardPool.mu.Unlock()
}

// ensureStore returns the runner's corpus store, creating it on first use.
// The store — like the program cache — lives as long as the runner, so
// successive runs replay corpora earlier runs recorded or decoded. The
// first run to create the store fixes its budget; later runs reuse it.
func (r *Runner) ensureStore(budgetBytes int64) *tracestream.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil {
		if budgetBytes <= 0 {
			budgetBytes = DefaultMemoBudgetBytes
		}
		r.store = tracestream.NewStore(budgetBytes)
	}
	return r.store
}

// MemoStats snapshots the runner's corpus-store counters (zero before any
// run).
func (r *Runner) MemoStats() MemoStats {
	r.mu.Lock()
	st := r.store
	r.mu.Unlock()
	if st == nil {
		return MemoStats{}
	}
	return st.Stats()
}

// queue is one shard's contiguous range of pending job indices. The owner
// pops from the bottom; thieves split off the top half.
type queue struct {
	mu     sync.Mutex
	lo, hi int // remaining jobs [lo, hi)
}

func (q *queue) pop() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.lo >= q.hi {
		return 0, false
	}
	i := q.lo
	q.lo++
	return i, true
}

func (q *queue) remaining() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.hi - q.lo
}

// steal splits off the top half of the queue's range, leaving at least one
// job for the owner.
func (q *queue) steal() (lo, hi int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.hi - q.lo
	if n <= 1 {
		return 0, 0, false
	}
	take := n / 2
	lo, hi = q.hi-take, q.hi
	q.hi = lo
	return lo, hi, true
}

func (q *queue) refill(lo, hi int) {
	q.mu.Lock()
	q.lo, q.hi = lo, hi
	q.mu.Unlock()
}

type engine struct {
	ctx    context.Context
	cancel context.CancelFunc
	grid   Grid
	queues []*queue
	runner *Runner
	store  *tracestream.Store
	del    *OrderedSink

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
	return r.run(ctx, g, 0, g.NumJobs(), opts, sink)
}

// RunRange executes cells [lo, hi) of the grid's enumeration. Results carry
// their global grid indices, so a caller (the distributed worker) executing
// disjoint ranges of one grid can merge the streams back into full-grid
// order.
func (r *Runner) RunRange(ctx context.Context, g Grid, lo, hi int, opts Options, sink ResultSink) error {
	if n := g.NumJobs(); lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("sweep: range [%d,%d) outside grid of %d jobs", lo, hi, n)
	}
	return r.run(ctx, g, lo, hi, opts, sink)
}

func (r *Runner) run(ctx context.Context, g Grid, lo, hi int, opts Options, sink ResultSink) error {
	n := hi - lo
	if n == 0 {
		return ctx.Err()
	}
	if sink == nil {
		sink = nopSink{}
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > n {
		shards = n
	}
	window := opts.Window
	if window <= 0 {
		window = 4 * shards
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	e := &engine{
		ctx:    runCtx,
		cancel: cancel,
		grid:   g,
		queues: make([]*queue, shards),
		runner: r,
		store:  r.ensureStore(opts.MemoBudgetBytes),
		del:    NewOrderedSink(lo, window, sink),
	}
	// Partition the range into contiguous per-shard sub-ranges; work
	// stealing rebalances them as shards drain at different speeds.
	base, rem := n/shards, n%shards
	next := lo
	for i := range e.queues {
		take := base
		if i < rem {
			take++
		}
		e.queues[i] = &queue{lo: next, hi: next + take}
		next += take
	}
	// Wake shards blocked on delivery backpressure when the run is
	// cancelled (externally or by a failing job).
	monitorDone := make(chan struct{})
	go func() {
		<-runCtx.Done()
		e.del.Cancel()
		close(monitorDone)
	}()
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.worker(id)
		}(i)
	}
	wg.Wait()
	cancel()
	<-monitorDone
	e.mu.Lock()
	errs := e.errs
	e.mu.Unlock()
	if len(errs) > 0 {
		// Report every broken cell observed before the stop, ordered
		// deterministically since shards race.
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return errors.Join(errs...)
	}
	return ctx.Err()
}

func (e *engine) worker(id int) {
	shard := acquireShard()
	defer releaseShard(shard)
	q := e.queues[id]
	for {
		if e.ctx.Err() != nil {
			return
		}
		i, ok := q.pop()
		if !ok {
			lo, hi, ok := e.stealLargest(id)
			if !ok {
				return
			}
			q.refill(lo, hi)
			continue
		}
		e.process(i, shard)
	}
}

// stealLargest takes the top half of the victim queue with the most pending
// jobs, retrying while steals race, and reports false when no queue has work
// to spare.
func (e *engine) stealLargest(id int) (lo, hi int, ok bool) {
	for {
		best, bestN := -1, 1
		for j, v := range e.queues {
			if j == id {
				continue
			}
			if n := v.remaining(); n > bestN {
				best, bestN = j, n
			}
		}
		if best < 0 {
			return 0, 0, false
		}
		if lo, hi, ok = e.queues[best].steal(); ok {
			return lo, hi, true
		}
	}
}

//lint:hotpath per-job engine loop
func (e *engine) process(i int, shard *Shard) {
	job := e.grid.JobAt(i)
	run, err := e.runner.progs.get(job.Workload, job.Scale)
	if err != nil {
		e.fail(err)
		return
	}
	rep, err := e.dispatch(shard, run, job)
	if err != nil {
		e.fail(fmt.Errorf("sweep: %s under %s: %w", job.Workload, job.Selector, err))
		return
	}
	e.del.Deliver(Result{Index: i, Job: job, Report: rep})
}

// fail records a job error and stops the grid.
func (e *engine) fail(err error) {
	e.mu.Lock()
	e.errs = append(e.errs, err)
	e.mu.Unlock()
	e.cancel()
}
