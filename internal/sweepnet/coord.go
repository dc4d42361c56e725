package sweepnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/sweep"
)

// Options tunes the coordinator.
type Options struct {
	// Chunk is the number of jobs per assigned range. <=0 picks a size
	// from the grid and worker count (rangeSize).
	Chunk int
	// Dial overrides the TCP dialer (tests inject failing or proxied
	// connections). nil means net.Dialer.DialContext.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

const (
	// inflight is how many ranges one worker may hold at once (the second
	// range hides assignment latency behind execution).
	inflight = 2
	// heartbeatTimeout declares a worker dead when nothing — results,
	// range completions, heartbeats — arrives on its connection for this
	// long.
	heartbeatTimeout = 10 * time.Second
	// retries is how many times one range may be reassigned after worker
	// failures before the run fails.
	retries = 3
)

func (o Options) withDefaults() Options {
	if o.Dial == nil {
		var d net.Dialer
		o.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return o
}

// rangeSize is the default range length. It aims for several rounds of
// assignment per worker, njobs / (8 × workers) jobs, so stealing-by-
// reassignment has granularity without descending to per-job RPCs, and
// rounds that to a whole number of workloads, at least one: a worker then
// holds every cell of a workload it runs, so it records the program once
// and its engine can answer a cell from an earlier one of the same
// workload (sweep.Runner.Shared). A workload of more than 512 cells, or
// whole workloads that would leave fewer than inflight ranges per worker,
// keep the unaligned cut.
func rangeSize(njobs, perWorkload, workers int) int {
	target := njobs / (8 * workers)
	if perWorkload <= 512 {
		n := max(1, (2*target+perWorkload)/(2*perWorkload)) * perWorkload
		if (njobs+n-1)/n >= inflight*workers {
			return n
		}
	}
	return max(1, min(target, 512))
}

// jobRange is a contiguous slice [lo, hi) of the grid's job-index space.
// attempts counts reassignments after worker failures.
type jobRange struct {
	lo, hi   int
	attempts int
}

// assignment tracks one range handed to a worker. watermark is the next
// result index the worker owes; results below it have already been merged,
// so a reassignment after failure resumes at the watermark and the output
// stream never sees a duplicate.
type assignment struct {
	jobRange
	watermark int
}

// coordinator is the shared state of one distributed run.
type coordinator struct {
	opts   Options
	grid   sweep.Grid
	njobs  int
	chunk  int
	window int
	ord    *sweep.OrderedSink
	cancel context.CancelFunc

	mu        sync.Mutex
	cond      sync.Cond
	pending   []jobRange // unassigned ranges, sorted by lo
	delivered int        // results merged into the output stream
	live      int        // connected workers
	stopped   bool       // run cancelled or failed
	finished  bool       // every job delivered
	errs      []error
	done      chan struct{} // closed on completion
}

// RunGrid executes the grid on the sweepd workers at addrs, merging their
// result streams into sink in grid-enumeration order. The output is
// byte-identical to a local sweep.RunGrid over the same grid: results are
// delivered exactly once, in order, with jobs rebuilt from their indices.
// Worker failures mid-run reassign the unfinished remainder of their ranges
// (at most retries times per range); job errors and context cancellation
// fail fast, and every error observed before the stop is aggregated with
// errors.Join in deterministic order.
func RunGrid(ctx context.Context, addrs []string, g sweep.Grid, opts Options, sink sweep.ResultSink) error {
	njobs := g.NumJobs()
	if njobs == 0 {
		return ctx.Err()
	}
	if len(addrs) == 0 {
		return errors.New("sweepnet: no worker addresses")
	}
	if sink == nil {
		sink = sweep.FuncSink(func(sweep.Result) {})
	}
	opts = opts.withDefaults()
	chunk := opts.Chunk
	if chunk <= 0 {
		chunk = rangeSize(njobs, g.PerWorkload(), len(addrs))
	}
	// The reorder window merging worker result streams, in jobs. Admission
	// control requires a whole range to fit it; see nextRange.
	window := max(2*chunk*len(addrs)*inflight, chunk)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	c := &coordinator{
		opts:   opts,
		grid:   g,
		njobs:  njobs,
		chunk:  chunk,
		window: window,
		ord:    sweep.NewOrderedSink(0, window, sink),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	c.cond.L = &c.mu
	for lo := 0; lo < njobs; lo += chunk {
		c.pending = append(c.pending, jobRange{lo: lo, hi: min(lo+chunk, njobs)})
	}
	c.live = len(addrs)

	// The monitor propagates cancellation (external, fail-fast, or
	// completion) to everything that can block: the reorder ring and the
	// assignment waiters.
	monitorDone := make(chan struct{})
	go func() {
		<-runCtx.Done()
		c.ord.Cancel()
		c.mu.Lock()
		c.stopped = true
		c.cond.Broadcast()
		c.mu.Unlock()
		close(monitorDone)
	}()

	var wg sync.WaitGroup
	for _, addr := range addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			c.runWorker(runCtx, addr)
		}(addr)
	}
	wg.Wait()
	cancel()
	<-monitorDone

	c.mu.Lock()
	errs := c.errs
	finished := c.finished
	c.mu.Unlock()
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return errors.Join(errs...)
	}
	if !finished {
		// No recorded error but the grid did not complete: the context was
		// cancelled from outside.
		return ctx.Err()
	}
	return nil
}

// fail records an error and stops the run.
func (c *coordinator) fail(err error) {
	c.mu.Lock()
	c.errs = append(c.errs, err)
	c.mu.Unlock()
	c.cancel()
}

// finish marks the run complete (every result merged) and releases every
// worker loop.
func (c *coordinator) finish() {
	c.mu.Lock()
	c.finished = true
	c.mu.Unlock()
	close(c.done)
	c.cancel()
}

// runWorker owns one worker connection for the whole run: dial, handshake,
// then a sender goroutine assigning ranges and a reader loop merging
// results. When the connection dies mid-run the unfinished remainder of its
// assignments is requeued for the surviving workers.
func (c *coordinator) runWorker(ctx context.Context, addr string) {
	defer func() {
		c.mu.Lock()
		c.live--
		// ctx.Err() is checked directly (not just c.stopped): on external
		// cancellation this defer can run before the monitor goroutine has
		// set stopped, and that race must not masquerade as worker failure.
		noneLeft := c.live == 0 && !c.finished && !c.stopped && ctx.Err() == nil
		c.cond.Broadcast()
		c.mu.Unlock()
		if noneLeft {
			c.fail(errors.New("sweepnet: all workers failed before the grid completed"))
		}
	}()
	conn, err := c.opts.Dial(ctx, addr)
	if err != nil {
		// A dial cut short by the run ending — finished by the other
		// workers, or cancelled (which RunGrid reports) — is no failure.
		if ctx.Err() == nil {
			c.fail(fmt.Errorf("sweepnet: dial %s: %w", addr, err))
		}
		return
	}
	defer conn.Close()
	// Unwind blocked reads and writes when the run stops.
	closed := make(chan struct{})
	defer close(closed)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-closed:
		}
	}()

	w := &workerConn{c: c, addr: addr, conn: conn, fw: newFrameWriter(conn), fr: newFrameReader(conn), intern: newInterner()}
	err = w.session(ctx)
	if errors.Is(err, errFrameTooLarge) {
		// Deterministic: every worker rejects the same grid. Fail the run
		// with the real cause instead of "all workers failed".
		c.fail(err)
	}
	w.abandon(ctx, err)
}

// workerConn is the per-connection coordinator state.
type workerConn struct {
	c      *coordinator
	addr   string
	conn   net.Conn
	fw     *frameWriter
	fr     *frameReader
	intern *interner

	mu       sync.Mutex
	assigned []*assignment // ranges in flight on this worker, FIFO by send order
	dead     bool
}

// session performs the handshake and runs the reader loop; the sender runs
// alongside until the connection dies or the run ends.
func (w *workerConn) session(ctx context.Context) error {
	if err := w.handshake(); err != nil {
		return err
	}
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		w.sender()
	}()
	err := w.readLoop(ctx)
	// Release the sender: mark the connection dead so nextRange stops
	// handing it work.
	w.mu.Lock()
	w.dead = true
	w.mu.Unlock()
	w.c.mu.Lock()
	w.c.cond.Broadcast()
	w.c.mu.Unlock()
	w.conn.Close()
	<-senderDone
	return err
}

// handshake validates the worker's hello and ships the grid.
func (w *workerConn) handshake() error {
	w.conn.SetReadDeadline(time.Now().Add(heartbeatTimeout))
	t, r, err := w.fr.next()
	if err != nil {
		return fmt.Errorf("sweepnet: %s: reading hello: %w", w.addr, err)
	}
	if t != frameHello {
		return fmt.Errorf("sweepnet: %s: first frame %#x, want hello", w.addr, t)
	}
	ver, err := r.u()
	if err != nil {
		return fmt.Errorf("sweepnet: %s: hello: %w", w.addr, err)
	}
	if ver != protoVersion {
		return fmt.Errorf("sweepnet: %s speaks protocol %d, want %d", w.addr, ver, protoVersion)
	}
	encodeGrid(w.fw.begin(frameGrid), w.c.grid)
	if err := w.fw.end(); err != nil {
		if errors.Is(err, errFrameTooLarge) {
			return fmt.Errorf("sweepnet: grid of %d configs too large for one frame — split the config axis across runs: %w", len(w.c.grid.Configs), err)
		}
		return fmt.Errorf("sweepnet: %s: sending grid: %w", w.addr, err)
	}
	return w.fw.flush()
}

// sender assigns pending ranges to this worker as admission allows.
func (w *workerConn) sender() {
	for {
		a, ok := w.nextRange()
		if !ok {
			return
		}
		encodeRange(w.fw.begin(frameRange), a.lo, a.hi)
		err := w.fw.end()
		if err == nil {
			err = w.fw.flush()
		}
		if err != nil {
			// The reader sees the broken connection too and owns the
			// requeue; just stop assigning.
			return
		}
	}
}

// nextRange blocks until this worker may take another range, claims the
// lowest pending one, and records the assignment. Admission control: a
// range is handed out only when it fits the reorder window above the
// delivery frontier, which guarantees merging one of its results never
// blocks — the invariant that makes the multi-connection merge
// deadlock-free (see docs/SWEEPD.md).
func (w *workerConn) nextRange() (*assignment, bool) {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.stopped || c.finished {
			return nil, false
		}
		w.mu.Lock()
		dead, held := w.dead, len(w.assigned)
		w.mu.Unlock()
		if dead {
			return nil, false
		}
		if len(c.pending) > 0 && held < inflight &&
			c.pending[0].hi-c.ord.Next() <= c.window {
			r := c.pending[0]
			c.pending = c.pending[1:]
			a := &assignment{jobRange: r, watermark: r.lo}
			w.mu.Lock()
			w.assigned = append(w.assigned, a)
			w.mu.Unlock()
			return a, true
		}
		c.cond.Wait()
	}
}

// readLoop consumes worker frames until the run ends or the connection
// dies. A read deadline of heartbeatTimeout bounds silence: the worker
// heartbeats much more often, so a timeout means the worker is gone.
func (w *workerConn) readLoop(ctx context.Context) error {
	for {
		w.conn.SetReadDeadline(time.Now().Add(heartbeatTimeout))
		t, r, err := w.fr.next()
		if err != nil {
			if ctx.Err() != nil || w.c.isFinished() {
				return nil // normal teardown, not a worker failure
			}
			return fmt.Errorf("sweepnet: %s: %w", w.addr, err)
		}
		switch t {
		case frameHeartbeat:
		case frameResults:
			if err := w.handleResults(&r); err != nil {
				return fmt.Errorf("sweepnet: %s: %w", w.addr, err)
			}
		case frameRangeDone:
			if err := w.handleRangeDone(&r); err != nil {
				return fmt.Errorf("sweepnet: %s: %w", w.addr, err)
			}
		case frameJobErr:
			msg, err := r.strBytes()
			if err != nil {
				return fmt.Errorf("sweepnet: %s: job error frame: %w", w.addr, err)
			}
			w.c.fail(fmt.Errorf("sweepnet: worker %s: %s", w.addr, msg))
			return nil
		default:
			return fmt.Errorf("sweepnet: %s: unexpected frame %#x", w.addr, t)
		}
		if w.c.isFinished() {
			return nil
		}
	}
}

// handleResults merges one batch. Results within a connection arrive in
// increasing index order per assignment (the worker executes a range
// through the ordered local engine), so each must land exactly on its
// assignment's watermark.
func (w *workerConn) handleResults(r *rbuf) error {
	n, err := r.count(minResultBytes)
	if err != nil {
		return err
	}
	c := w.c
	for k := 0; k < n; k++ {
		var res sweep.Result
		if err := decodeResult(r, w.intern, &res); err != nil {
			return err
		}
		a := w.assignmentFor(res.Index)
		if a == nil || res.Index != a.watermark {
			return fmt.Errorf("result index %d does not match any assignment watermark", res.Index)
		}
		res.Job = c.grid.JobAt(res.Index)
		// Merge before advancing the watermark: a result counts as
		// delivered only once the ordered sink owns it, so a failure
		// between decode and merge replays the index instead of losing it.
		c.ord.Deliver(res)
		a.watermark++
		c.mu.Lock()
		c.delivered++
		finished := c.delivered == c.njobs
		// The frontier moved; admission-blocked senders may proceed.
		c.cond.Broadcast()
		c.mu.Unlock()
		if finished {
			c.finish()
			return nil
		}
	}
	return nil
}

// handleRangeDone retires a completed assignment and frees its inflight
// slot. Lock order is always c.mu before w.mu (nextRange nests them that
// way), so the broadcast happens after w.mu is released.
func (w *workerConn) handleRangeDone(r *rbuf) error {
	lo, hi, err := decodeRange(r)
	if err != nil {
		return err
	}
	w.mu.Lock()
	found := false
	for i, a := range w.assigned {
		if a.lo == lo && a.hi == hi {
			if a.watermark != a.hi {
				w.mu.Unlock()
				return fmt.Errorf("range [%d,%d) done with %d results missing", lo, hi, a.hi-a.watermark)
			}
			w.assigned = append(w.assigned[:i], w.assigned[i+1:]...)
			found = true
			break
		}
	}
	w.mu.Unlock()
	if !found {
		return fmt.Errorf("range [%d,%d) done but was never assigned here", lo, hi)
	}
	w.c.mu.Lock()
	w.c.cond.Broadcast()
	w.c.mu.Unlock()
	return nil
}

// assignmentFor finds the in-flight assignment covering a result index.
func (w *workerConn) assignmentFor(idx int) *assignment {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, a := range w.assigned {
		if a.lo <= idx && idx < a.hi {
			return a
		}
	}
	return nil
}

// abandon requeues the unfinished remainder of this worker's assignments
// after its connection died. Delivered results stay delivered — the
// replacement worker resumes each range at its watermark — so the merged
// output is unchanged by the failure. A range reassigned more than
// retries times fails the run, as does losing the last worker.
func (w *workerConn) abandon(ctx context.Context, sessionErr error) {
	w.mu.Lock()
	assigned := w.assigned
	w.assigned = nil
	w.mu.Unlock()

	c := w.c
	if sessionErr == nil || ctx.Err() != nil || c.isFinished() {
		return
	}
	// A worker failure alone does not fail the run — the remainders are
	// requeued and the run succeeds if a surviving worker absorbs them.
	// Only exhausting the retry budget (or, in runWorker, losing the last
	// worker) turns the failure into a run error.
	for _, a := range assigned {
		if a.watermark >= a.hi {
			continue
		}
		r := jobRange{lo: a.watermark, hi: a.hi, attempts: a.attempts + 1}
		if r.attempts > retries {
			c.fail(fmt.Errorf("sweepnet: range [%d,%d) failed %d times (last: %w)", r.lo, r.hi, r.attempts, sessionErr))
			return
		}
		c.mu.Lock()
		i := sort.Search(len(c.pending), func(i int) bool { return c.pending[i].lo >= r.lo })
		c.pending = append(c.pending, jobRange{})
		copy(c.pending[i+1:], c.pending[i:])
		c.pending[i] = r
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

func (c *coordinator) isFinished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finished
}
