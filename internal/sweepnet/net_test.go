package sweepnet

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/tracestream"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// testGrid is small enough for fast tests but spans several workloads,
// selectors, and configs, so ranges land on different workers.
func testGrid() sweep.Grid {
	limited := sweep.Config{Params: core.DefaultParams(), CacheLimitBytes: 2000}
	return sweep.Grid{
		Workloads: []string{"gzip", "vpr", "mcf"},
		Scale:     30,
		Selectors: []string{"net", "lei"},
		Configs:   []sweep.Config{{Params: core.DefaultParams()}, limited},
	}
}

// startWorker serves the sweepnet protocol on a loopback listener, returning
// its address and a shutdown function that drains it.
func startWorker(t *testing.T, opts ServerOptions) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, ln, opts)
	}()
	return ln.Addr().String(), func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("worker did not drain within 10s")
		}
	}
}

// checkGoroutines fails the test if the goroutine count has not returned to
// (near) the baseline. Polled: connection teardown is asynchronous.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRemoteMatchesLocal is the core determinism property: a grid run over
// two wire workers delivers exactly the results of a local single-process
// run, in the same order.
func TestRemoteMatchesLocal(t *testing.T) {
	g := testGrid()
	var local sweep.CollectSink
	if err := sweep.RunGrid(context.Background(), g, sweep.Options{Shards: 2}, &local); err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	addr1, stop1 := startWorker(t, ServerOptions{Shards: 2, Heartbeat: 50 * time.Millisecond})
	addr2, stop2 := startWorker(t, ServerOptions{Shards: 2, Heartbeat: 50 * time.Millisecond})
	var remote sweep.CollectSink
	err := RunGrid(context.Background(), []string{addr1, addr2}, g,
		Options{Chunk: 2}, &remote)
	if err != nil {
		t.Fatal(err)
	}
	stop1()
	stop2()
	checkGoroutines(t, baseline)

	if len(remote.Results) != g.NumJobs() {
		t.Fatalf("remote run delivered %d results, want %d", len(remote.Results), g.NumJobs())
	}
	if !reflect.DeepEqual(remote.Results, local.Results) {
		for i := range local.Results {
			if !reflect.DeepEqual(remote.Results[i], local.Results[i]) {
				t.Fatalf("result %d differs\nremote %+v\nlocal  %+v", i, remote.Results[i], local.Results[i])
			}
		}
		t.Fatal("remote results differ from local")
	}
}

// killingProxy forwards one TCP connection to a backend and abruptly closes
// both sides after limit bytes of backend→coordinator traffic — a worker
// dying mid-stream, as seen from the coordinator.
type killingProxy struct {
	ln      net.Listener
	backend string
	limit   int64
	killed  atomic.Bool
}

func startKillingProxy(t *testing.T, backend string, limit int64) *killingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killingProxy{ln: ln, backend: backend, limit: limit}
	go p.run()
	return p
}

func (p *killingProxy) addr() string { return p.ln.Addr().String() }

func (p *killingProxy) run() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.serve(conn)
	}
}

func (p *killingProxy) serve(conn net.Conn) {
	up, err := net.Dial("tcp", p.backend)
	if err != nil {
		conn.Close()
		return
	}
	var once sync.Once
	kill := func() {
		once.Do(func() {
			p.killed.Store(true)
			conn.Close()
			up.Close()
		})
	}
	go func() {
		io.Copy(up, conn) // coordinator → worker, unlimited
		kill()
	}()
	// worker → coordinator, cut off after limit bytes.
	io.Copy(conn, io.LimitReader(up, p.limit))
	kill()
}

// TestWorkerKillReassign kills one of two workers mid-stream and checks the
// run still completes with output identical to a local run: the dead
// worker's unfinished ranges are reassigned from their watermarks, with no
// duplicate or missing result.
func TestWorkerKillReassign(t *testing.T) {
	g := testGrid()
	var local sweep.CollectSink
	if err := sweep.RunGrid(context.Background(), g, sweep.Options{Shards: 2}, &local); err != nil {
		t.Fatal(err)
	}

	addr1, stop1 := startWorker(t, ServerOptions{Shards: 2, Heartbeat: 50 * time.Millisecond})
	addr2, stop2 := startWorker(t, ServerOptions{Shards: 2, Heartbeat: 50 * time.Millisecond})
	defer stop1()
	defer stop2()
	// Cut the second worker's stream a few bytes past its hello: the first
	// result batch it flushes dies mid-frame, while it still holds assigned
	// ranges, so the coordinator must reassign from the watermark.
	proxy := startKillingProxy(t, addr2, 100)
	defer proxy.ln.Close()
	// Hold the healthy worker's dial until the kill, so it cannot finish
	// the whole grid before the proxied worker has sent 100 bytes.
	var d net.Dialer
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		for addr == addr1 && !proxy.killed.Load() {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
		return d.DialContext(ctx, "tcp", addr)
	}

	var remote sweep.CollectSink
	err := RunGrid(context.Background(), []string{addr1, proxy.addr()}, g,
		Options{Chunk: 2, Dial: dial}, &remote)
	if err != nil {
		t.Fatalf("run with one killed worker failed: %v", err)
	}
	if !proxy.killed.Load() {
		t.Fatal("proxy never killed the connection; raise the grid size or lower the byte limit")
	}
	if !reflect.DeepEqual(remote.Results, local.Results) {
		t.Fatalf("output after worker kill differs from local run (%d vs %d results)",
			len(remote.Results), len(local.Results))
	}
}

// TestPendingDialAfterFinish: a dial still pending when another worker
// finishes the grid is cut short by the run ending, not a failure — RunGrid
// returns nil with every result delivered.
func TestPendingDialAfterFinish(t *testing.T) {
	addr, stop := startWorker(t, ServerOptions{Shards: 2, Heartbeat: 50 * time.Millisecond})
	defer stop()
	const stuck = "stuck.invalid:1"
	var d net.Dialer
	dial := func(ctx context.Context, a string) (net.Conn, error) {
		if a == stuck {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return d.DialContext(ctx, "tcp", a)
	}
	g := testGrid()
	var remote sweep.CollectSink
	if err := RunGrid(context.Background(), []string{stuck, addr}, g, Options{Chunk: 2, Dial: dial}, &remote); err != nil {
		t.Fatalf("completed grid returned %v", err)
	}
	if len(remote.Results) != g.NumJobs() {
		t.Fatalf("delivered %d results, want %d", len(remote.Results), g.NumJobs())
	}
}

// TestCoordinatorCancelNoLeaks cancels a run mid-flight and checks RunGrid
// returns the context error promptly with no goroutines left behind.
func TestCoordinatorCancelNoLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	addr, stop := startWorker(t, ServerOptions{Shards: 2, Heartbeat: 50 * time.Millisecond})
	g := testGrid()
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	sink := sweep.FuncSink(func(sweep.Result) {
		if n.Add(1) == 2 {
			cancel() // cancel while results are in flight
		}
	})
	err := RunGrid(ctx, []string{addr}, g, Options{Chunk: 2}, sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	stop()
	checkGoroutines(t, baseline)
}

// TestJobErrorFailsFast: a grid naming an unknown workload makes the worker
// report a job error and the whole run fail quickly.
func TestJobErrorFailsFast(t *testing.T) {
	addr, stop := startWorker(t, ServerOptions{Shards: 2, Heartbeat: 50 * time.Millisecond})
	defer stop()
	g := testGrid()
	g.Workloads = []string{"no-such-workload"}
	err := RunGrid(context.Background(), []string{addr}, g, Options{}, nil)
	if err == nil {
		t.Fatal("run over an unknown workload succeeded")
	}
}

// TestDialFailureFailsFast: an unreachable worker address fails the run
// rather than hanging.
func TestDialFailureFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here any more
	runErr := RunGrid(context.Background(), []string{addr}, testGrid(), Options{}, nil)
	if runErr == nil {
		t.Fatal("run against a dead address succeeded")
	}
}

// TestServeDrainIdle: cancelling an idle server returns promptly.
func TestServeDrainIdle(t *testing.T) {
	_, stop := startWorker(t, ServerOptions{})
	stop()
}

// TestServeDrainIdleSession: a drain arriving while a connected session's
// queue is empty must hang up the connection and let Serve return — not
// leave the session heartbeating with a read loop that accepts ranges
// nobody will execute.
func TestServeDrainIdleSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, ln, ServerOptions{Shards: 1, Heartbeat: 50 * time.Millisecond})
	}()

	// Act as the coordinator: handshake and ship the grid, assign nothing.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := newFrameReader(conn)
	if ft, _, err := fr.next(); err != nil || ft != frameHello {
		t.Fatalf("hello: frame %#x, err %v", ft, err)
	}
	fw := newFrameWriter(conn)
	encodeGrid(fw.begin(frameGrid), testGrid())
	if err := fw.end(); err != nil {
		t.Fatal(err)
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}

	cancel() // drain while the session's queue is empty
	// The worker must hang up: in-flight heartbeats drain, then EOF.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, _, err := fr.next(); err != nil {
			break
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after draining an idle session")
	}
}

// TestFrameWriterRejectsOversized: a payload over maxFrame errors at the
// writer (errFrameTooLarge) instead of going on the wire for the reader to
// drop as corruption.
func TestFrameWriterRejectsOversized(t *testing.T) {
	fw := newFrameWriter(io.Discard)
	w := fw.begin(frameGrid)
	w.b = append(w.b, make([]byte, maxFrame)...)
	if err := fw.end(); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("end accepted a %d-byte payload: %v", len(w.b), err)
	}
}

// TestRemoteTraceWorkloadMatchesLocal extends the determinism property to
// the trace-corpus workload class: a grid mixing trace:<path> corpora with
// live workloads, distributed over two wire workers, delivers byte-for-byte
// the results of a local run. The workers resolve the trace path on their
// own filesystem (shared with the coordinator here, as docs/SWEEPD.md
// requires for trace workloads).
func TestRemoteTraceWorkloadMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/gzip.trace"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	prog := workloads.MustGet("gzip").Build(30)
	_, err = tracestream.Record(prog, "gzip", 30, vm.Config{}, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	g := sweep.Grid{
		Workloads: []string{"trace:" + path, "vpr"},
		Scale:     30,
		Selectors: []string{"net", "lei", "adaptive"},
	}
	var local sweep.CollectSink
	if err := sweep.RunGrid(context.Background(), g, sweep.Options{Shards: 2}, &local); err != nil {
		t.Fatal(err)
	}
	addr1, stop1 := startWorker(t, ServerOptions{Shards: 2, Heartbeat: 50 * time.Millisecond})
	addr2, stop2 := startWorker(t, ServerOptions{Shards: 2, Heartbeat: 50 * time.Millisecond})
	defer stop1()
	defer stop2()
	var remote sweep.CollectSink
	if err := RunGrid(context.Background(), []string{addr1, addr2}, g, Options{Chunk: 1}, &remote); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote.Results, local.Results) {
		t.Fatal("remote trace-workload results differ from local")
	}
}
