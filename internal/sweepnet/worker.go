package sweepnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/sweep"
)

// ServerOptions tunes a sweepd worker.
type ServerOptions struct {
	// Shards is the per-range shard count handed to the local sweep engine.
	// <=0 means GOMAXPROCS.
	Shards int
	// Heartbeat is how often the worker proves liveness while a range is
	// executing. <=0 means 2s; it must stay well under the coordinator's
	// heartbeat timeout (10s).
	Heartbeat time.Duration
	// Memo switches the local engine's record-once/replay-many trace
	// memoization (default on — sweep.MemoOn is the zero value).
	// Memoization only changes how the worker executes jobs, never their
	// reports, so remote output stays byte-identical to a local run either
	// way, and the memoized corpora persist across ranges and connections
	// with the shared Runner.
	Memo sweep.MemoMode
	// MemoBudgetBytes bounds the worker's resident corpora, memo
	// recordings and decoded trace files alike (<=0 means
	// sweep.DefaultMemoBudgetBytes).
	MemoBudgetBytes int64
	// Runner, when non-nil, is the pooled execution state to serve with
	// instead of a fresh one — cmd/sweepd passes its own so it can report
	// memo counters after draining.
	Runner *sweep.Runner
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 2 * time.Second
	}
	return o
}

const (
	// batchResults is how many results accumulate before a frameResults
	// flush.
	batchResults = 64
	// batchBytes flushes a result batch early once its payload reaches
	// this size, bounding frame memory on both ends independent of
	// batchResults.
	batchBytes = 32 << 10
)

// Serve accepts coordinator connections on ln until ctx is cancelled, then
// drains gracefully: the listener closes immediately, every session finishes
// the range it is executing (abandoning the rest of its queue), and Serve
// returns once the last session is gone. The coordinator reassigns whatever
// a draining worker abandons, so a rolling restart costs duplicate-free
// retries, not a failed run.
//
// One pooled sweep.Runner is shared by every session for the lifetime of the
// server: shards (dynopt.Scratch, Resettable selectors) and compiled
// programs are built once and reused across connections and ranges.
func Serve(ctx context.Context, ln net.Listener, opts ServerOptions) error {
	opts = opts.withDefaults()
	runner := opts.Runner
	if runner == nil {
		runner = sweep.NewRunner()
	}
	lnClosed := make(chan struct{})
	go func() {
		<-ctx.Done()
		ln.Close()
		close(lnClosed)
	}()
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			wg.Wait()
			return fmt.Errorf("sweepnet: accept: %w", err)
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			runSession(ctx, conn, runner, opts)
		}(conn)
	}
	wg.Wait()
	<-lnClosed
	return ctx.Err()
}

// session is the per-connection worker state.
type session struct {
	conn   net.Conn
	runner *sweep.Runner
	opts   ServerOptions

	wmu sync.Mutex // serializes frame writes (results, heartbeats, errors)
	fw  *frameWriter

	mu       sync.Mutex
	cond     sync.Cond
	grid     sweep.Grid
	haveGrid bool
	queue    []jobRange // ranges accepted but not yet executed
	closed   bool       // connection dead or reader done
	draining bool       // server shutting down: finish current range, then hang up
}

// runSession speaks the worker side of the protocol on one connection.
// The reader (this goroutine) accepts the grid and range assignments; the
// executor goroutine runs queued ranges through the shared runner and
// streams results; the heartbeater keeps the coordinator's read deadline at
// bay during long ranges.
func runSession(srvCtx context.Context, conn net.Conn, runner *sweep.Runner, opts ServerOptions) {
	defer conn.Close()
	s := &session{conn: conn, runner: runner, opts: opts, fw: newFrameWriter(conn)}
	s.cond.L = &s.mu

	// sctx aborts in-flight range execution when the connection dies. It is
	// deliberately not a child of srvCtx: a drain lets the current range
	// finish.
	sctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	w := s.fw.begin(frameHello)
	w.putU(protoVersion)
	w.putU(uint64(opts.Shards))
	if s.fw.end() != nil || s.fw.flush() != nil {
		return
	}

	stop := make(chan struct{})
	defer close(stop)
	go s.heartbeater(stop)
	go func() {
		select {
		case <-srvCtx.Done():
			s.mu.Lock()
			s.draining = true
			s.cond.Broadcast()
			s.mu.Unlock()
		case <-stop:
		}
	}()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.executor(sctx)
	}()

	s.readLoop()
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	cancel() // abort any in-flight range; its results are going nowhere
	wg.Wait()
}

// readLoop consumes coordinator frames until the connection dies.
func (s *session) readLoop() {
	fr := newFrameReader(s.conn)
	for {
		t, r, err := fr.next()
		if err != nil {
			return
		}
		switch t {
		case frameGrid:
			g, err := decodeGrid(&r)
			if err != nil {
				s.sendErr(fmt.Errorf("bad grid: %w", err))
				return
			}
			s.mu.Lock()
			dup := s.haveGrid
			if !dup {
				s.grid = g
				s.haveGrid = true
			}
			s.mu.Unlock()
			if dup {
				s.sendErr(errors.New("duplicate grid frame"))
				return
			}
		case frameRange:
			lo, hi, err := decodeRange(&r)
			if err != nil {
				s.sendErr(fmt.Errorf("bad range: %w", err))
				return
			}
			s.mu.Lock()
			ok := s.haveGrid && hi <= s.grid.NumJobs()
			if ok {
				s.queue = append(s.queue, jobRange{lo: lo, hi: hi})
				s.cond.Broadcast()
			}
			s.mu.Unlock()
			if !ok {
				s.sendErr(fmt.Errorf("range [%d,%d) before grid or outside it", lo, hi))
				return
			}
		default:
			s.sendErr(fmt.Errorf("unexpected frame %#x", t))
			return
		}
	}
}

// executor drains the range queue, lowest range first — a reassigned low
// range must not starve behind higher ones, since the coordinator's merge
// frontier (and therefore further admission) waits on it.
func (s *session) executor(sctx context.Context) {
	for {
		r, grid, ok := s.nextQueued()
		if !ok {
			// The queue is cut loose: the connection is already dead, or a
			// drain arrived while this session was idle. Hang up either way —
			// without the close, a drained-but-idle session keeps
			// heartbeating while its read loop accepts ranges nobody will
			// execute, and both the coordinator and Serve's drain wait
			// forever (TestServeDrainIdleSession).
			s.conn.Close()
			return
		}
		stream := &resultStream{s: s}
		err := s.runner.RunRange(sctx, grid, r.lo, r.hi, sweep.Options{
			Shards:          s.opts.Shards,
			Memo:            s.opts.Memo,
			MemoBudgetBytes: s.opts.MemoBudgetBytes,
		}, stream)
		if err != nil {
			if sctx.Err() != nil {
				return // connection gone; the coordinator reassigns
			}
			s.sendErr(fmt.Errorf("range [%d,%d): %w", r.lo, r.hi, err))
			s.conn.Close()
			return
		}
		s.wmu.Lock()
		stream.flushLocked()
		encodeRange(s.fw.begin(frameRangeDone), r.lo, r.hi)
		werr := s.fw.end()
		if werr == nil {
			werr = s.fw.flush()
		}
		s.wmu.Unlock()
		if werr != nil {
			return
		}
		s.mu.Lock()
		drain := s.draining
		s.mu.Unlock()
		if drain {
			// Graceful drain: current range delivered, abandon the rest.
			s.conn.Close()
			return
		}
	}
}

// nextQueued blocks for the lowest queued range. ok is false once the
// connection is closed, or once a drain is requested and the queue has been
// cut loose.
func (s *session) nextQueued() (jobRange, sweep.Grid, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return jobRange{}, sweep.Grid{}, false
		}
		if len(s.queue) > 0 {
			min := 0
			for i, r := range s.queue {
				if r.lo < s.queue[min].lo {
					min = i
				}
			}
			r := s.queue[min]
			s.queue = append(s.queue[:min], s.queue[min+1:]...)
			return r, s.grid, true
		}
		if s.draining {
			return jobRange{}, sweep.Grid{}, false
		}
		s.cond.Wait()
	}
}

// heartbeater writes a liveness frame every Heartbeat interval until the
// session ends. Write errors are ignored: the reader notices the dead
// connection.
func (s *session) heartbeater(stop <-chan struct{}) {
	t := time.NewTicker(s.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.wmu.Lock()
			s.fw.begin(frameHeartbeat)
			if s.fw.end() == nil {
				s.fw.flush()
			}
			s.wmu.Unlock()
		}
	}
}

// sendErr reports a fatal job or protocol error to the coordinator.
func (s *session) sendErr(err error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	w := s.fw.begin(frameJobErr)
	w.putStr(err.Error())
	if s.fw.end() == nil {
		s.fw.flush()
	}
}

// resultStream adapts the local engine's ordered result stream to batched
// frameResults frames. Deliver appends to a reused encode buffer and flushes
// on batch boundaries; the whole steady-state path is allocation-free.
type resultStream struct {
	s   *session
	buf wbuf
	n   int
}

// Deliver implements sweep.ResultSink. Result indices are already global
// grid indices (RunRange enumerates [lo, hi) of the full grid), which is
// exactly what the coordinator's merge expects.
//
//lint:hotpath per-result streaming on the worker
func (rs *resultStream) Deliver(r sweep.Result) {
	encodeResult(&rs.buf, r.Index, &r.Report)
	rs.n++
	if rs.n >= batchResults || len(rs.buf.b) >= batchBytes {
		rs.s.wmu.Lock()
		rs.flushLocked()
		rs.s.wmu.Unlock()
	}
}

// flushLocked frames and writes the pending batch; the caller holds wmu.
// Write errors are dropped here — the session reader owns failure handling,
// and a broken connection surfaces there as the session closing.
func (rs *resultStream) flushLocked() {
	if rs.n == 0 {
		return
	}
	fw := rs.s.fw
	w := fw.begin(frameResults)
	w.putU(uint64(rs.n))
	w.putRaw(rs.buf.b)
	if fw.end() == nil {
		fw.flush()
	}
	rs.buf.reset()
	rs.n = 0
}
