package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/sweep"
	"repro/internal/tracestream"
	"repro/internal/vm"
)

// span is one timed call into a layer during a traced pass. A span's self
// time is its duration minus the durations of its children.
//
// A probe span re-runs part of its parent's work in isolation, once the
// pass's real calls are done, to split the parent's time between two
// layers: the VM alone under a recording, the simulator's event walk and
// the report analysis under a replay. Probes run outside their parent's
// interval, so subtracting
// their durations from the parent's leaves the parent's layer with exactly
// the work the probes did not repeat.
type span struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Pass     int    `json:"pass"`
	Name     string `json:"name"`
	Layer    string `json:"layer,omitempty"`
	Selector string `json:"selector,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Probe    bool   `json:"probe,omitempty"`
}

// tracer keeps a run's spans in memory; they are written out at exit.
type tracer struct {
	epoch    time.Time
	workload string
	pass     int
	spans    []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (0 for a pass's root) and returns its id.
func (t *tracer) start(parent int, name, layer string) int {
	t.spans = append(t.spans, span{
		Workload: t.workload,
		ID:       len(t.spans) + 1,
		Parent:   parent,
		Pass:     t.pass,
		Name:     name,
		Layer:    layer,
		Start:    int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// probe opens a probe span under parent.
func (t *tracer) probe(parent int, name, layer string) int {
	id := t.start(parent, name, layer)
	t.spans[id-1].Probe = true
	return id
}

func (t *tracer) stop(id int) { t.spans[id-1].End = int64(time.Since(t.epoch)) }

// selfTimes sums the self times of one pass's spans by layer, and those of
// layer core by selector, in milliseconds. negCore counts the core spans
// whose probes outran them, leaving a negative self time.
func selfTimes(spans []span) (byLayer, bySel map[string]float64, negCore int) {
	children := map[int]int64{}
	for _, s := range spans {
		children[s.Parent] += s.End - s.Start
	}
	byLayer, bySel = map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		if s.Layer == "" {
			continue
		}
		self := float64(s.End-s.Start-children[s.ID]) / 1e6
		byLayer[s.Layer] += self
		if s.Layer == "core" {
			bySel[s.Selector] += self
			if self < 0 {
				negCore++
			}
		}
	}
	return byLayer, bySel, negCore
}

// stagedLayers are the layers whose self times add up to the work of an
// untraced pass; the engine's own cost is what the untraced pass takes
// beyond them.
var stagedLayers = []string{"workloads", "vm", "tracestream.record", "dynopt", "core", "metrics"}

// passCounts are the work counts of one traced pass.
type passCounts struct {
	jobs         int
	programs     int
	instrs       uint64 // interpreted by the VM
	events       uint64 // block events walked by the simulator
	regions      int
	recordBytes  int64
	decodeEvents uint64
	selEvents    map[string]uint64
}

// idleSelector profiles nothing and never promotes a region, so a run under
// it costs only the simulator's event walk and attribution.
type idleSelector struct{}

func (idleSelector) Name() string                           { return "idle" }
func (idleSelector) Transfer(core.Env, core.Event)          {}
func (idleSelector) CacheExit(core.Env, isa.Addr, isa.Addr) {}
func (idleSelector) Stats() core.ProfileStats               { return core.ProfileStats{} }

// stager replays the engine's dispatch by hand, one job at a time in grid
// order on one shard, and times each layer's public call as a span. A job
// of a cell nobody has recorded yet records the cell and then replays from
// the recording, as the engine's memo does in one tapped run; every later
// job of the cell replays; a trace-reference job replays its decoded file;
// a live stager runs every job live.
//
// The probes of a pass run after all its real calls, so that the real
// calls follow one another as they do in the engine, with the same data in
// the processor's caches.
type stager struct {
	tr       *tracer
	shard    *sweep.Shard
	rec      vm.Machine // records cells, as the shard's machine would
	probeVM  vm.Machine
	probe    dynopt.Scratch
	analyzer metrics.Analyzer
	sels     map[string]core.Selector
	// build makes a cell's program on first touch; nil when every program
	// is in progs already.
	build   func(sweep.Job) *program.Program
	progs   map[cell]*program.Program
	corpora map[cell]*tracestream.Corpus
	live    bool
	probes  []probe
	counts  passCounts
}

// probe is the isolated re-run that splits one real call's span.
type probe struct {
	parent int
	prog   *program.Program // set: time the VM alone on it
	corpus *tracestream.Corpus
	job    sweep.Job // with corpus set: time the simulator and the analysis
}

func newStager(build func(sweep.Job) *program.Program) *stager {
	return &stager{
		shard:   sweep.NewShard(),
		sels:    map[string]core.Selector{},
		build:   build,
		progs:   map[cell]*program.Program{},
		corpora: map[cell]*tracestream.Corpus{},
	}
}

// run stages every job of one pass under the root span, delivering each
// report by job index, then runs the pass's probes and returns its work
// counts.
func (s *stager) run(tr *tracer, root int, jobs []sweep.Job, deliver func(int, metrics.Report)) (passCounts, error) {
	s.tr = tr
	s.counts = passCounts{selEvents: map[string]uint64{}}
	s.probes = s.probes[:0]
	for i, job := range jobs {
		rep, err := s.job(root, job)
		if err != nil {
			return s.counts, fmt.Errorf("%s under %s: %w", job.Workload, job.Selector, err)
		}
		s.counts.regions += rep.Regions
		deliver(i, rep)
	}
	for _, p := range s.probes {
		if err := s.runProbe(p); err != nil {
			return s.counts, fmt.Errorf("probing %s under %s: %w", p.job.Workload, p.job.Selector, err)
		}
	}
	return s.counts, nil
}

func (s *stager) job(root int, job sweep.Job) (metrics.Report, error) {
	k := cellOf(job)
	if tracestream.IsRef(job.Workload) {
		return s.replay(root, s.corpora[k], job)
	}
	p := s.progs[k]
	if p == nil {
		id := s.tr.start(root, "workloads.Workload.Build", "workloads")
		p = s.build(job)
		s.tr.stop(id)
		s.progs[k] = p
		s.counts.programs++
	}
	if s.live {
		return s.runLive(root, p, s.corpora[k], job)
	}
	c := s.corpora[k]
	if c == nil {
		var err error
		if c, err = s.record(root, p, job); err != nil {
			return metrics.Report{}, err
		}
		s.corpora[k] = c
	}
	return s.replay(root, c, job)
}

// record interprets p once with an in-memory recorder attached.
func (s *stager) record(root int, p *program.Program, job sweep.Job) (*tracestream.Corpus, error) {
	id := s.tr.start(root, "tracestream.MemRecorder", "tracestream.record")
	s.rec.Load(p, vm.Config{})
	r := tracestream.NewMemRecorder(p, job.Workload, job.Scale)
	st, err := s.rec.Run(r)
	mc := r.Corpus(st)
	s.tr.stop(id)
	if err != nil {
		return nil, err
	}
	s.counts.recordBytes += mc.SizeBytes()
	s.probes = append(s.probes, probe{parent: id, prog: p, job: job})
	return &mc.Corpus, nil
}

// replay runs one job from a recorded corpus, as the engine's memo hit does.
func (s *stager) replay(root int, c *tracestream.Corpus, job sweep.Job) (metrics.Report, error) {
	id := s.tr.start(root, "sweep.Shard.Replay", "core")
	rep, err := s.shard.Replay(c, job)
	s.tr.stop(id)
	s.probes = append(s.probes, probe{parent: id, corpus: c, job: job})
	return rep, err
}

// runLive runs one job live; c is the job's recording, which the probes
// replay.
func (s *stager) runLive(root int, p *program.Program, c *tracestream.Corpus, job sweep.Job) (metrics.Report, error) {
	id := s.tr.start(root, "sweep.Shard.Run", "core")
	rep, err := s.shard.Run(p, job)
	s.tr.stop(id)
	s.probes = append(s.probes, probe{parent: id, prog: p, corpus: c, job: job})
	return rep, err
}

// runProbe times, under its parent span, the interpreter alone on the
// program, then the simulator's event walk under the idle selector and the
// report analysis of a real run of the job.
func (s *stager) runProbe(p probe) error {
	if p.prog != nil {
		id := s.tr.probe(p.parent, "vm.Machine.Run", "vm")
		s.probeVM.Load(p.prog, vm.Config{})
		st, err := s.probeVM.Run(nil)
		s.tr.stop(id)
		s.counts.instrs += st.Instrs
		if err != nil {
			return err
		}
	}
	if p.corpus == nil {
		return nil
	}
	c, job := p.corpus, p.job
	s.tr.spans[p.parent-1].Selector = job.Selector
	events := c.Stream.Events
	s.counts.jobs++
	s.counts.events += uint64(len(events))
	s.counts.selEvents[job.Selector] += uint64(len(events))

	id := s.tr.probe(p.parent, "dynopt.Simulator.BlockBatch", "dynopt")
	sim := dynopt.NewSimulator(c.Prog, dynopt.Config{Selector: idleSelector{}, Scratch: &s.probe})
	sim.BlockBatch(events)
	s.tr.stop(id)

	sel, err := s.selector(job)
	if err != nil {
		return err
	}
	h := c.Stream.Header
	res, err := dynopt.RunEvents(c.Prog, dynopt.Config{
		Selector:        sel,
		CacheLimitBytes: job.CacheLimitBytes,
		Scratch:         &s.probe,
	}, events, h.FinalPC, h.Instrs)
	if err != nil {
		return err
	}
	id = s.tr.probe(p.parent, "metrics.Analyzer.Analyze", "metrics")
	s.analyzer.Analyze(res.Cache, res.Collector, sel.Stats())
	s.tr.stop(id)
	return nil
}

// selector returns a pooled selector for the job's analysis probe.
func (s *stager) selector(job sweep.Job) (core.Selector, error) {
	if sel, ok := s.sels[job.Selector]; ok {
		sel.(core.Resettable).Reset(job.Params)
		return sel, nil
	}
	sel, err := sweep.NewSelector(job.Selector, job.Params)
	if err != nil {
		return nil, err
	}
	if _, ok := sel.(core.Resettable); ok {
		s.sels[job.Selector] = sel
	}
	return sel, nil
}

// recordProgram interprets p once and returns its recording, for stagers
// whose jobs replay or probe cells recorded before the traced passes.
func recordProgram(p *program.Program, job sweep.Job) (*tracestream.Corpus, error) {
	r := tracestream.NewMemRecorder(p, job.Workload, job.Scale)
	st, err := vm.New(p, vm.Config{}).Run(r)
	if err != nil {
		return nil, err
	}
	return &r.Corpus(st).Corpus, nil
}
