package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/sweep"
	"repro/internal/sweepnet"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// workloadNames lists the benchmark's workloads in the order a run without
// -workload measures them. Each one's reason is in README.md.
var workloadNames = []string{"paper-cold", "thresh-cold", "live-large", "remote-warm"}

// shape fixes the work of one pass of every workload. The benchmark measures
// fullShape; tests run tinyShape.
type shape struct {
	paperScale    int   // experiments.RunAll scale; 0 takes each workload's default
	threshScale   int   // scale of thresh-cold's SPEC cells; 0 takes the defaults
	traceScale    int   // scale of the registered synthetic program thresh-cold replays from a file
	thresholds    int   // NET=LEI threshold points thresh-cold draws from the seed
	largePrograms int   // live-large's programs of each generator
	largeSynth    int   // workloads.Synthetic size in live-large
	largePhased   int   // workloads.Phased size in live-large
	remoteScale   int   // scale of remote-warm's SPEC cells
	historyCaps   []int // remote-warm's LEI history-buffer sizes
}

var fullShape = shape{
	traceScale:    200_000,
	thresholds:    8,
	largePrograms: 3,
	largeSynth:    400_000,
	largePhased:   240_000,
	remoteScale:   120,
	historyCaps:   []int{50, 100, 200, 350, 500, 650, 800, 1000},
}

var tinyShape = shape{
	paperScale:    4,
	threshScale:   4,
	traceScale:    5_000,
	thresholds:    2,
	largePrograms: 1,
	largeSynth:    20_000,
	largePhased:   24_000,
	remoteScale:   4,
	historyCaps:   []int{100, 500},
}

// workload is one named input set, driven through the same public entry
// points the command-line tools use.
type workload interface {
	// jobs lists one pass's jobs in delivery order.
	jobs() []sweep.Job
	// program builds the program a job runs on, for the reference path.
	program(job sweep.Job) *program.Program
	// setup builds inputs and starts services; the warm-up pass follows.
	setup(ctx context.Context, chk *checker) error
	// pass runs one untraced pass, delivering every report by job index.
	pass(ctx context.Context, deliver func(int, metrics.Report)) error
	// prepareTrace readies the inputs of the traced passes.
	prepareTrace(ctx context.Context, chk *checker) error
	// traced runs one pass staged layer by layer under the root span.
	traced(tr *tracer, root int, deliver func(int, metrics.Report)) (passCounts, error)
	// memo runs one pass through an engine the benchmark holds and returns
	// the pass's memo counters.
	memo(ctx context.Context, deliver func(int, metrics.Report)) (sweep.MemoStats, error)
	close()
}

// config is one run's settings.
type config struct {
	shape   shape
	seed    int64
	procs   int
	workDir string // scratch files of the run live here
}

func newWorkload(name string, cfg config, rep int) (workload, error) {
	switch name {
	case "paper-cold":
		return newPaperCold(cfg), nil
	case "thresh-cold":
		return newThreshCold(cfg, rep), nil
	case "live-large":
		return newLiveLarge(cfg), nil
	case "remote-warm":
		return newRemoteWarm(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// buildRegistered builds a job's program the way the engine's program
// cache does.
func buildRegistered(job sweep.Job) *program.Program {
	return workloads.MustGet(job.Workload).Build(job.Scale)
}

// gridDeliver adapts a job-index delivery function to an engine sink.
func gridDeliver(deliver func(int, metrics.Report)) sweep.ResultSink {
	return sweep.FuncSink(func(r sweep.Result) { deliver(r.Index, r.Report) })
}

// paperCold is what cmd/papertables runs: experiments.RunAll over the
// twelve SPEC-named workloads and five selectors at default parameters.
// RunAll builds a fresh engine every pass, so every cell builds its
// program, records once live and replays for its other selectors.
type paperCold struct {
	grid sweep.Grid // the grid RunAll enumerates
}

func newPaperCold(cfg config) *paperCold {
	return &paperCold{grid: sweep.Grid{
		Workloads: workloads.SpecNames(),
		Scale:     cfg.shape.paperScale,
		Selectors: experiments.AllSelectors(),
		Configs:   []sweep.Config{{Params: experiments.DefaultParams()}},
	}}
}

func (w *paperCold) jobs() []sweep.Job                            { return w.grid.Jobs() }
func (w *paperCold) program(job sweep.Job) *program.Program       { return buildRegistered(job) }
func (w *paperCold) setup(context.Context, *checker) error        { return nil }
func (w *paperCold) prepareTrace(context.Context, *checker) error { return nil }
func (w *paperCold) close()                                       {}

func (w *paperCold) pass(ctx context.Context, deliver func(int, metrics.Report)) error {
	res, err := experiments.RunAll(ctx, w.grid.Scale, experiments.DefaultParams())
	if err != nil {
		return err
	}
	for i, job := range w.jobs() {
		if rep, ok := res.Lookup(job.Workload, job.Selector); ok {
			deliver(i, rep)
		}
	}
	return nil
}

// memo runs RunAll's grid on a fresh Runner, which RunAll does not expose.
func (w *paperCold) memo(ctx context.Context, deliver func(int, metrics.Report)) (sweep.MemoStats, error) {
	r := sweep.NewRunner()
	err := r.RunGrid(ctx, w.grid, sweep.Options{}, gridDeliver(deliver))
	return r.MemoStats(), err
}

func (w *paperCold) traced(tr *tracer, root int, deliver func(int, metrics.Report)) (passCounts, error) {
	return newStager(buildRegistered).run(tr, root, w.jobs(), deliver)
}

// threshCold is the closed-loop threshold search: a fresh sweep.Runner per
// pass over three SPEC cells and one recorded trace file, under the four
// paper selectors and NET=LEI thresholds drawn from the seed. It is the
// only workload that replays a trace file, whose decode lands in set-up.
type threshCold struct {
	grid  sweep.Grid
	procs int
	scale int // of the recording; see newThreshCold
	path  string
	ref   string

	corpus *tracestream.Corpus
	data   []byte
}

// newThreshCold prepares set-up repetition rep. Each repetition records the
// trace at a scale one higher than the last: the header differs, so the
// process-wide corpus cache, keyed by file content, decodes every
// repetition's file afresh. workloads.Synthetic splits its size into whole
// kernels of a few thousand instructions, so sizes a few instructions apart
// build the same program and the reports do not change; the reference check
// fails the run if they ever do.
func newThreshCold(cfg config, rep int) *threshCold {
	path := filepath.Join(cfg.workDir, "thresh.rbs")
	ref := tracestream.RefPrefix + path
	var configs []sweep.Config
	for _, t := range thresholds(cfg.seed, cfg.shape.thresholds) {
		p := core.DefaultParams()
		p.NETThreshold, p.LEIThreshold = t, t
		configs = append(configs, sweep.Config{Params: p})
	}
	return &threshCold{
		grid: sweep.Grid{
			Workloads: []string{"bzip2", "gcc", "mcf", ref},
			Scale:     cfg.shape.threshScale,
			Selectors: sweep.PaperSelectors(),
			Configs:   configs,
		},
		procs: cfg.procs,
		scale: cfg.shape.traceScale + rep,
		path:  path,
		ref:   ref,
	}
}

// thresholds draws n thresholds from [4,160] as an evenly spaced grid at
// an offset drawn from the seed. Every seed spans the range the same way,
// so the cost of a pass changes little from seed to seed.
func thresholds(seed int64, n int) []int {
	const lo, hi = 4, 160
	u := rand.New(rand.NewSource(seed)).Float64()
	width := float64(hi-lo+1) / float64(n)
	out := make([]int, n)
	for i := range out {
		out[i] = lo + int((float64(i)+u)*width)
	}
	return out
}

func (w *threshCold) jobs() []sweep.Job { return w.grid.Jobs() }

func (w *threshCold) program(job sweep.Job) *program.Program {
	if job.Workload == w.ref {
		return workloads.MustGet("synthetic").Build(w.scale)
	}
	return buildRegistered(job)
}

func (w *threshCold) setup(context.Context, *checker) error {
	f, err := os.Create(w.path)
	if err != nil {
		return err
	}
	p := workloads.MustGet("synthetic").Build(w.scale)
	if _, err := tracestream.Record(p, "synthetic", w.scale, vm.Config{}, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *threshCold) pass(ctx context.Context, deliver func(int, metrics.Report)) error {
	_, err := w.memo(ctx, deliver)
	return err
}

func (w *threshCold) memo(ctx context.Context, deliver func(int, metrics.Report)) (sweep.MemoStats, error) {
	r := sweep.NewRunner()
	err := r.RunGrid(ctx, w.grid, sweep.Options{Shards: w.procs}, gridDeliver(deliver))
	return r.MemoStats(), err
}

func (w *threshCold) prepareTrace(context.Context, *checker) error {
	c, err := tracestream.DefaultCache.LoadRef(w.ref)
	if err != nil {
		return err
	}
	w.corpus = c
	w.data, err = os.ReadFile(w.path)
	return err
}

func (w *threshCold) traced(tr *tracer, root int, deliver func(int, metrics.Report)) (passCounts, error) {
	id := tr.probe(root, "tracestream.DecodeBytes", "tracestream.decode")
	s, err := tracestream.DecodeBytes(w.data)
	tr.stop(id)
	if err != nil {
		return passCounts{}, err
	}
	st := newStager(buildRegistered)
	st.corpora[cell{w.ref, w.grid.Scale}] = w.corpus
	counts, err := st.run(tr, root, w.jobs(), deliver)
	counts.decodeEvents = uint64(len(s.Events))
	return counts, err
}

func (w *threshCold) close() {}

// liveLarge is a regionsim-style single run on a large static footprint:
// one pooled sweep.Shard runs seeded large programs live under NET and
// LEI, with no engine, memo or wire. Several programs of each generator
// average out how much the seed's program shapes cost.
type liveLarge struct {
	list   []sweep.Job
	build  map[string]func() *program.Program // by job workload label
	progs  []*program.Program                 // by job index
	shard  *sweep.Shard
	stager *stager
}

func newLiveLarge(cfg config) *liveLarge {
	w := &liveLarge{build: map[string]func() *program.Program{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	for k := 0; k < cfg.shape.largePrograms; k++ {
		seed := rng.Int63()
		synth, phased := cfg.shape.largeSynth, cfg.shape.largePhased
		for _, u := range []struct {
			label string
			scale int
			build func() *program.Program
		}{
			{fmt.Sprintf("synthetic-%d", k), synth, func() *program.Program { return workloads.Synthetic(seed, synth) }},
			{fmt.Sprintf("phased-%d", k), phased, func() *program.Program { return workloads.Phased(seed, phased) }},
		} {
			w.build[u.label] = u.build
			for _, sel := range []string{sweep.NET, sweep.LEI} {
				w.list = append(w.list, sweep.Job{Workload: u.label, Scale: u.scale, Selector: sel, Params: core.DefaultParams()})
			}
		}
	}
	return w
}

func (w *liveLarge) jobs() []sweep.Job { return w.list }

// program builds the seeded generator program a job's workload labels.
func (w *liveLarge) program(job sweep.Job) *program.Program { return w.build[job.Workload]() }

func (w *liveLarge) setup(context.Context, *checker) error {
	built := map[cell]*program.Program{}
	for _, job := range w.list {
		p, ok := built[cellOf(job)]
		if !ok {
			p = w.program(job)
			built[cellOf(job)] = p
		}
		w.progs = append(w.progs, p)
	}
	w.shard = sweep.NewShard()
	return nil
}

func (w *liveLarge) pass(_ context.Context, deliver func(int, metrics.Report)) error {
	for i, job := range w.list {
		rep, err := w.shard.Run(w.progs[i], job)
		if err != nil {
			return err
		}
		deliver(i, rep)
	}
	return nil
}

func (w *liveLarge) memo(ctx context.Context, deliver func(int, metrics.Report)) (sweep.MemoStats, error) {
	return sweep.MemoStats{}, w.pass(ctx, deliver)
}

// prepareTrace records each program once, for the probes that split a live
// run between the simulator and the selectors, and warms the stager.
func (w *liveLarge) prepareTrace(_ context.Context, chk *checker) error {
	s := newStager(nil)
	s.shard, s.live = w.shard, true
	for i, job := range w.list {
		k := cellOf(job)
		if s.progs[k] != nil {
			continue
		}
		c, err := recordProgram(w.progs[i], job)
		if err != nil {
			return err
		}
		s.progs[k], s.corpora[k] = w.progs[i], c
	}
	w.stager = s
	return warmStager(w, chk)
}

func (w *liveLarge) traced(tr *tracer, root int, deliver func(int, metrics.Report)) (passCounts, error) {
	return w.stager.run(tr, root, w.list, deliver)
}

func (w *liveLarge) close() {}

// warmStager runs one untimed traced pass, so that the timed traced passes
// of a persistent stager start from pooled state, as the engine they stand
// in for does.
func warmStager(w workload, chk *checker) error {
	chk.begin()
	_, err := w.traced(newTracer(), 0, chk.deliver)
	chk.end()
	return err
}

// remoteWarm is the sweepd path: sweepnet.RunGrid over two loopback
// connections to two in-process sweepnet.Serve workers, each with one
// shard and a memo warmed in set-up, on the SPEC suite × five selectors ×
// LEI history-buffer sizes.
type remoteWarm struct {
	grid  sweep.Grid
	procs int

	cancel  context.CancelFunc
	served  sync.WaitGroup
	addrs   []string
	runners []*sweep.Runner

	bytesIn, bytesOut atomic.Int64
	wire              [][2]int64 // bytes in and out of each untraced pass

	local  *sweep.Runner
	stager *stager
}

func newRemoteWarm(cfg config) *remoteWarm {
	var configs []sweep.Config
	for _, h := range cfg.shape.historyCaps {
		p := core.DefaultParams()
		p.HistoryCap = h
		configs = append(configs, sweep.Config{Params: p})
	}
	return &remoteWarm{
		grid: sweep.Grid{
			Workloads: workloads.SpecNames(),
			Scale:     cfg.shape.remoteScale,
			Selectors: experiments.AllSelectors(),
			Configs:   configs,
		},
		procs: cfg.procs,
	}
}

// remoteWorkers is the number of loopback workers and connections.
const remoteWorkers = 2

func (w *remoteWarm) jobs() []sweep.Job                      { return w.grid.Jobs() }
func (w *remoteWarm) program(job sweep.Job) *program.Program { return buildRegistered(job) }

func (w *remoteWarm) setup(ctx context.Context, chk *checker) error {
	sctx, cancel := context.WithCancel(ctx)
	w.cancel = cancel
	for i := 0; i < remoteWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		r := sweep.NewRunner()
		w.addrs = append(w.addrs, ln.Addr().String())
		w.runners = append(w.runners, r)
		w.served.Add(1)
		go func() {
			defer w.served.Done()
			// Serve returns the context's error once the benchmark stops it.
			_ = sweepnet.Serve(sctx, ln, sweepnet.ServerOptions{Shards: 1, Runner: r})
		}()
	}
	// Each worker runs the whole grid alone once, so that its memo holds
	// every cell whichever ranges the coordinator later hands it.
	for _, addr := range w.addrs {
		chk.begin()
		err := sweepnet.RunGrid(ctx, []string{addr}, w.grid, sweepnet.Options{Dial: w.dial}, gridDeliver(chk.deliver))
		chk.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// dial connects to a worker through a connection that counts its bytes.
//
// It ignores the run's context: sweepnet.RunGrid fails a run whose last
// result arrives while another worker's dial is still in flight, because
// the cancelled dial is reported as a dial error. A loopback dial returns
// at once either way, and once connected the coordinator treats the
// cancellation as a normal end.
func (w *remoteWarm) dial(_ context.Context, addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, in: &w.bytesIn, out: &w.bytesOut}, nil
}

func (w *remoteWarm) pass(ctx context.Context, deliver func(int, metrics.Report)) error {
	in, out := w.bytesIn.Load(), w.bytesOut.Load()
	err := sweepnet.RunGrid(ctx, w.addrs, w.grid, sweepnet.Options{Dial: w.dial}, gridDeliver(deliver))
	w.wire = append(w.wire, [2]int64{w.bytesIn.Load() - in, w.bytesOut.Load() - out})
	return err
}

func (w *remoteWarm) memo(ctx context.Context, deliver func(int, metrics.Report)) (sweep.MemoStats, error) {
	before := w.memoStats()
	err := w.pass(ctx, deliver)
	after := w.memoStats()
	after.Hits -= before.Hits
	after.Misses -= before.Misses
	after.Fallbacks -= before.Fallbacks
	return after, err
}

// memoStats sums the workers' memo counters.
func (w *remoteWarm) memoStats() sweep.MemoStats {
	var sum sweep.MemoStats
	for _, r := range w.runners {
		s := r.MemoStats()
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Fallbacks += s.Fallbacks
		sum.ResidentBytes += s.ResidentBytes
	}
	return sum
}

// prepareTrace warms a local Runner on the same grid, the baseline the
// wire's overhead is measured against, and records every cell for the
// stager, which replays them as the warm workers do.
func (w *remoteWarm) prepareTrace(ctx context.Context, chk *checker) error {
	w.local = sweep.NewRunner()
	chk.begin()
	err := w.localPass(ctx, chk.deliver)
	chk.end()
	if err != nil {
		return err
	}
	s := newStager(nil)
	for _, job := range w.jobs() {
		k := cellOf(job)
		if s.progs[k] != nil {
			continue
		}
		p := buildRegistered(job)
		c, err := recordProgram(p, job)
		if err != nil {
			return err
		}
		s.progs[k], s.corpora[k] = p, c
	}
	w.stager = s
	return warmStager(w, chk)
}

// localPass runs the grid on the warm local Runner.
func (w *remoteWarm) localPass(ctx context.Context, deliver func(int, metrics.Report)) error {
	return w.local.RunGrid(ctx, w.grid, sweep.Options{Shards: w.procs}, gridDeliver(deliver))
}

func (w *remoteWarm) traced(tr *tracer, root int, deliver func(int, metrics.Report)) (passCounts, error) {
	return w.stager.run(tr, root, w.jobs(), deliver)
}

// close stops the workers and waits until they have returned.
func (w *remoteWarm) close() {
	if w.cancel != nil {
		w.cancel()
		w.served.Wait()
	}
}

// countingConn counts the bytes a connection carries each way.
type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}
