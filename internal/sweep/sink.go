package sweep

import (
	"sync"

	"repro/internal/metrics"
)

// Result is one completed cell of a sweep grid.
type Result struct {
	// Index is the job's position in the grid's deterministic enumeration
	// order. Results are delivered in strictly increasing Index order.
	Index int
	// Job is the grid cell that produced the report.
	Job Job
	// Report carries every paper metric for the run.
	Report metrics.Report
}

// ResultSink receives completed sweep results as they stream out of the
// engine. Deliver is called at most once per job, serialized and in strictly
// increasing Index order, so a sink needs no locking and no buffering of its
// own; it must not block indefinitely (delivery applies backpressure to the
// shards). On cancellation or failure the remaining results are dropped, so
// a sink must tolerate a truncated stream.
type ResultSink interface {
	Deliver(Result)
}

// FuncSink adapts a function to the ResultSink interface.
type FuncSink func(Result)

// Deliver implements ResultSink.
func (f FuncSink) Deliver(r Result) { f(r) }

// CollectSink accumulates every delivered result in order. It is the
// bounded-grid convenience sink; streaming sinks should be preferred for
// grids too large to hold in memory.
type CollectSink struct {
	Results []Result
}

// Deliver implements ResultSink.
func (s *CollectSink) Deliver(r Result) { s.Results = append(s.Results, r) }

// CountingSink counts deliveries without retaining them — the zero-overhead
// sink used by benchmarks and alloc guards.
type CountingSink struct {
	N int
}

// Deliver implements ResultSink.
func (s *CountingSink) Deliver(Result) { s.N++ }

type nopSink struct{}

func (nopSink) Deliver(Result) {}

// OrderedSink is the engine's ordered streaming stage: a bounded reorder
// ring between racing producers and the single serialized sink. A producer
// finishing job i blocks only while i is more than window slots ahead of the
// oldest undelivered job — and the producer owning that oldest job never
// blocks, which is what makes the backpressure deadlock-free when producers
// drain contiguous ranges in increasing index order. Memory is bounded by
// the window regardless of grid size, and the ring slots are reused, so
// steady-state delivery does not allocate.
//
// It is exported for the distributed coordinator (internal/sweepnet), which
// merges the result streams of many wire workers through the same ring the
// in-process engine uses — output order is the grid enumeration either way.
type OrderedSink struct {
	mu        sync.Mutex
	cond      sync.Cond
	buf       []Result // ring: job i parks in buf[i%len(buf)]
	ready     []bool
	next      int // lowest undelivered index
	cancelled bool
	sink      ResultSink
}

// NewOrderedSink returns a ring forwarding to sink. base is the first index
// expected (the low end of the range being produced); window bounds how far
// ahead of the delivery frontier a producer may run.
func NewOrderedSink(base, window int, sink ResultSink) *OrderedSink {
	d := &OrderedSink{}
	d.cond.L = &d.mu
	d.rearm(base, window, sink)
	return d
}

// rearm re-targets an idle ring to a new run, reslicing its slots when the
// window fits them.
func (d *OrderedSink) rearm(base, window int, sink ResultSink) {
	if window <= cap(d.buf) {
		d.buf, d.ready = d.buf[:window], d.ready[:window]
		clear(d.ready)
	} else {
		d.buf, d.ready = make([]Result, window), make([]bool, window)
	}
	d.next, d.cancelled, d.sink = base, false, sink
}

// ringPool holds the idle engine rings, as shardPool holds shards: every
// run re-arms one (acquireRing) and returns it when it ends (releaseRing),
// so a warm process allocates no ring per RunGrid or RunRange. A sweepd
// worker runs sessions concurrently, so the rings cannot live on its one
// Runner.
var ringPool idleList[*OrderedSink]

// acquireRing pops an idle ring re-armed for a run, building one when none
// is idle.
func acquireRing(base, window int, sink ResultSink) *OrderedSink {
	d, ok := ringPool.pop()
	if !ok {
		return NewOrderedSink(base, window, sink)
	}
	d.rearm(base, window, sink)
	return d
}

// releaseRing returns the ring of a finished run to the idle list. Nothing
// may touch it afterwards: no producer, and no Cancel still on its way.
func releaseRing(d *OrderedSink) {
	d.sink = nil
	ringPool.push(d)
}

// Deliver hands one finished result to the sink, in index order, blocking
// while the result is too far ahead of the delivery frontier. Each index
// must be delivered at most once. It implements ResultSink, so rings can be
// stacked when a merge stage needs its own window.
func (d *OrderedSink) Deliver(r Result) {
	d.mu.Lock()
	w := len(d.buf)
	for !d.cancelled && r.Index >= d.next+w {
		d.cond.Wait()
	}
	if d.cancelled {
		d.mu.Unlock()
		return
	}
	d.buf[r.Index%w] = r
	d.ready[r.Index%w] = true
	for d.ready[d.next%w] {
		slot := d.next % w
		d.ready[slot] = false
		d.next++
		// The sink runs under the lock: delivery is serialized and ordered
		// by construction, and producers that race ahead wait right here.
		d.sink.Deliver(d.buf[slot])
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Next returns the delivery frontier: the lowest index not yet handed to
// the sink. The coordinator uses it for admission control — it assigns a
// job range to a worker only when the range fits the window, which is what
// keeps Deliver from ever blocking a connection reader.
func (d *OrderedSink) Next() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next
}

// Cancel wakes every blocked producer and drops all undelivered results.
func (d *OrderedSink) Cancel() {
	d.mu.Lock()
	d.cancelled = true
	d.cond.Broadcast()
	d.mu.Unlock()
}
