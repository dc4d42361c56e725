// Command sweepd is the distributed sweep worker: it serves the sweepnet
// wire protocol, executing job ranges a coordinator (cmd/sweep -remote)
// assigns and streaming the results back:
//
//	sweepd                        # listen on :7543, GOMAXPROCS shards
//	sweepd -listen :9000 -shards 4
//
// One pooled sweep engine is shared across connections for the lifetime of
// the process, so repeated coordinator runs reuse warmed scratch state and
// compiled programs. On SIGTERM or SIGINT the worker drains gracefully: it
// stops accepting connections, finishes the range each session is
// executing, and exits; the coordinator reassigns the rest (docs/SWEEPD.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/sweep"
	"repro/internal/sweepnet"
)

func main() {
	listen := flag.String("listen", ":7543", "TCP listen address (host:port; port 0 picks a free port)")
	shards := flag.Int("shards", 0, "engine shards per range (0 = GOMAXPROCS)")
	memoBudget := flag.Int64("memobudget", 0, "resident corpus budget in bytes, memo recordings and decoded trace files alike (0 = engine default)")
	flag.Parse()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
	// The scripted smoke test and operators both parse this line for the
	// bound address (meaningful with -listen :0).
	fmt.Printf("sweepd: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runner := sweep.NewRunner()
	err = sweepnet.Serve(ctx, ln, sweepnet.ServerOptions{
		Shards:          *shards,
		MemoBudgetBytes: *memoBudget,
		Runner:          runner,
	})
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
	fmt.Printf("sweepd: memo %v shared=%d\n", runner.MemoStats(), runner.Shared())
	fmt.Println("sweepd: drained")
}
