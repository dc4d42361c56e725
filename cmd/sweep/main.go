// Command sweep runs a parameter-sweep grid — workloads × selectors ×
// parameter points — on the sharded sweep engine and streams the results:
//
//	sweep                                # the paper's full 12×4 grid
//	sweep -grid 'workloads=gzip,gcc;selectors=net,lei;scale=100'
//	sweep -grid 'selectors=lei;leithreshold=16,32,64' -sink csv
//	sweep -grid 'workloads=synthetic;scale=400000' -shards 8 -sink jsonl
//	sweep -remote host1:7543,host2:7543  # same grid, distributed to sweepd
//	sweep -list                          # grid keys, workloads, selectors
//
// The -grid spec is a semicolon-separated list of key=value assignments;
// list-valued keys take comma-separated values and the grid is the cross
// product of every list. Results stream out in deterministic grid order
// regardless of sharding, so two invocations of the same grid are
// byte-identical. Interrupting the run (SIGINT) cancels the remaining
// cells and exits after the delivered prefix.
//
// With -remote the grid runs on sweepd workers (cmd/sweepd) instead of
// in-process shards; the output and every other flag are unchanged — a
// distributed run is byte-identical to a local one, whatever the worker
// count or timing (see docs/SWEEPD.md). The exception is -shards, which
// is a worker-side setting in remote mode: each sweepd picks its own
// shard count (sweepd -shards), and setting -shards here warns.
//
// Grids memoize by default (docs/PERFORMANCE.md): the first job running a
// program records the VM's branch-event stream in memory and every other
// job of the same program replays it, so multi-point parameter axes run
// severalfold faster with byte-identical output; -v prints the memo
// hit/miss/evict/fallback counters to stderr.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/sweepnet"
	"repro/internal/tracestream"
	"repro/internal/workloads"
)

func main() {
	gridSpec := flag.String("grid", "", "grid spec: 'key=v1,v2;key=v' (see -list for keys; empty = paper 12×4 grid)")
	shards := flag.Int("shards", 0, "worker shards (0 = GOMAXPROCS)")
	sinkName := flag.String("sink", "table", "output format: table, csv, jsonl, or none")
	remote := flag.String("remote", "", "comma-separated sweepd worker addresses; empty = run in-process")
	verbose := flag.Bool("v", false, "print run statistics (memo counters) to stderr")
	list := flag.Bool("list", false, "list grid keys, workloads, and selectors, then exit")
	flag.Parse()

	if *list {
		printList(os.Stdout)
		return
	}
	grid, err := parseGrid(*gridSpec)
	if err != nil {
		fail(err)
	}
	sink, flush, err := newSink(*sinkName, os.Stdout)
	if err != nil {
		fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *remote != "" {
		if *shards != 0 {
			fmt.Fprintln(os.Stderr, "sweep: warning: -shards has no effect with -remote; sharding is a worker-side setting (sweepd -shards)")
		}
		addrs := strings.Split(*remote, ",")
		for i, a := range addrs {
			addrs[i] = strings.TrimSpace(a)
		}
		err = sweepnet.RunGrid(ctx, addrs, grid, sweepnet.Options{}, sink)
	} else {
		runner := sweep.NewRunner()
		err = runner.RunGrid(ctx, grid, sweep.Options{Shards: *shards}, sink)
		if *verbose {
			fmt.Fprintln(os.Stderr, "sweep: memo", runner.MemoStats())
		}
	}
	flush()
	if err != nil {
		fail(err)
	}
}

// gridKeys are the recognized -grid assignments. Parameter keys are
// list-valued: the engine runs the cross product of every parameter list.
var gridKeys = []struct{ key, doc string }{
	{"workloads", "workload names or trace:<path> corpora (default: the twelve SPEC-named workloads)"},
	{"selectors", "selector names (default: net, lei, net+comb, lei+comb)"},
	{"scale", "workload scale multiplier (single value; 0 = per-workload default)"},
	{"cachelimit", "code-cache bounds in bytes (0 = unbounded)"},
	{"netthreshold", "NET selection thresholds"},
	{"leithreshold", "LEI selection thresholds"},
	{"historycap", "LEI history-buffer capacities"},
	{"tprof", "trace-combination profiling windows"},
	{"phasewindow", "adaptive phase-detector window sizes (observations)"},
	{"phasedwell", "adaptive phase-detector dwell windows (hysteresis)"},
}

func parseGrid(spec string) (sweep.Grid, error) {
	g := sweep.Grid{
		Workloads: workloads.SpecNames(),
		Selectors: sweep.PaperSelectors(),
	}
	// Each parameter key contributes one axis to the config cross product.
	axes := map[string][]int{}
	for _, kv := range strings.Split(spec, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return g, fmt.Errorf("grid assignment %q is not key=value", kv)
		}
		vals := strings.Split(val, ",")
		switch key {
		case "workloads":
			g.Workloads = vals
			for _, w := range vals {
				if tracestream.IsRef(w) {
					// Syntax check only: the stream file is read (and its
					// program digest verified) when the job first runs —
					// with -remote, on the worker's filesystem.
					if tracestream.RefPath(w) == "" {
						return g, fmt.Errorf("trace workload %q has an empty path", w)
					}
					continue
				}
				if _, ok := workloads.Get(w); !ok {
					return g, fmt.Errorf("unknown workload %q (try -list)", w)
				}
			}
		case "selectors":
			g.Selectors = vals
			for _, s := range vals {
				if _, err := sweep.NewSelector(s, core.DefaultParams()); err != nil {
					return g, err
				}
			}
		case "scale":
			n, err := strconv.Atoi(val)
			if err != nil {
				return g, fmt.Errorf("scale %q: %w", val, err)
			}
			g.Scale = n
		case "cachelimit", "netthreshold", "leithreshold", "historycap", "tprof",
			"phasewindow", "phasedwell":
			ints := make([]int, len(vals))
			for i, v := range vals {
				n, err := strconv.Atoi(strings.TrimSpace(v))
				if err != nil {
					return g, fmt.Errorf("%s value %q: %w", key, v, err)
				}
				ints[i] = n
			}
			axes[key] = ints
		default:
			return g, fmt.Errorf("unknown grid key %q (try -list)", key)
		}
	}
	g.Configs = expandConfigs(axes)
	return g, nil
}

// expandConfigs builds the cross product of every parameter axis, in the
// deterministic order the axes are declared in gridKeys.
func expandConfigs(axes map[string][]int) []sweep.Config {
	configs := []sweep.Config{{Params: core.DefaultParams()}}
	expand := func(key string, apply func(*sweep.Config, int)) {
		vals, ok := axes[key]
		if !ok {
			return
		}
		next := make([]sweep.Config, 0, len(configs)*len(vals))
		for _, c := range configs {
			for _, v := range vals {
				nc := c
				apply(&nc, v)
				next = append(next, nc)
			}
		}
		configs = next
	}
	expand("cachelimit", func(c *sweep.Config, v int) { c.CacheLimitBytes = v })
	expand("netthreshold", func(c *sweep.Config, v int) { c.Params.NETThreshold = v })
	expand("leithreshold", func(c *sweep.Config, v int) { c.Params.LEIThreshold = v })
	expand("historycap", func(c *sweep.Config, v int) { c.Params.HistoryCap = v })
	expand("tprof", func(c *sweep.Config, v int) { c.Params.TProf = v })
	expand("phasewindow", func(c *sweep.Config, v int) { c.Params.PhaseWindow = v })
	expand("phasedwell", func(c *sweep.Config, v int) { c.Params.PhaseDwell = v })
	return configs
}

// csvHeader and csvRow define the csv sink's schema; encoding/csv owns the
// quoting, so workload or selector names containing separators, quotes, or
// newlines survive a round trip (TestCSVSinkQuoting).
var csvHeader = []string{"workload", "selector", "cachelimit", "netthreshold",
	"leithreshold", "historycap", "tprof", "phasewindow", "phasedwell",
	"instrs", "hitrate", "regions", "expansion", "stubs", "transitions",
	"cover90", "counters"}

func csvRow(r sweep.Result) []string {
	return []string{
		r.Job.Workload, r.Job.Selector,
		strconv.Itoa(r.Job.CacheLimitBytes),
		strconv.Itoa(r.Job.Params.NETThreshold),
		strconv.Itoa(r.Job.Params.LEIThreshold),
		strconv.Itoa(r.Job.Params.HistoryCap),
		strconv.Itoa(r.Job.Params.TProf),
		strconv.Itoa(r.Job.Params.PhaseWindow),
		strconv.Itoa(r.Job.Params.PhaseDwell),
		strconv.FormatUint(r.Report.TotalInstrs, 10),
		strconv.FormatFloat(r.Report.HitRate, 'f', 4, 64),
		strconv.Itoa(r.Report.Regions),
		strconv.Itoa(r.Report.CodeExpansion),
		strconv.Itoa(r.Report.Stubs),
		strconv.FormatUint(r.Report.Transitions, 10),
		strconv.Itoa(r.Report.CoverSet90),
		strconv.Itoa(r.Report.CountersHighWater),
	}
}

// newSink returns the output sink and a flush function to run after the
// sweep drains. The flush function fails the process on pending write
// errors, so a full disk or closed pipe can't silently truncate a run's
// output.
func newSink(name string, out io.Writer) (sweep.ResultSink, func(), error) {
	switch name {
	case "none":
		return sweep.FuncSink(func(sweep.Result) {}), func() {}, nil
	case "jsonl":
		enc := json.NewEncoder(out)
		return sweep.FuncSink(func(r sweep.Result) {
			if err := enc.Encode(r.Report); err != nil {
				fail(err)
			}
		}), func() {}, nil
	case "csv":
		w := csv.NewWriter(out)
		header := true
		sink := sweep.FuncSink(func(r sweep.Result) {
			if header {
				header = false
				if err := w.Write(csvHeader); err != nil {
					fail(err)
				}
			}
			if err := w.Write(csvRow(r)); err != nil {
				fail(err)
			}
		})
		flush := func() {
			w.Flush()
			if err := w.Error(); err != nil {
				fail(err)
			}
		}
		return sink, flush, nil
	case "table":
		header := true
		return sweep.FuncSink(func(r sweep.Result) {
			if header {
				header = false
				fmt.Fprintf(out, "%-18s %-9s %10s %8s %8s %7s %6s %7s %8s\n",
					"workload", "selector", "limit", "instrs", "hitrate", "regions", "stubs", "cover90", "counters")
			}
			fmt.Fprintf(out, "%-18s %-9s %10d %8d %7.1f%% %7d %6d %7d %8d\n",
				r.Job.Workload, r.Job.Selector, r.Job.CacheLimitBytes,
				r.Report.TotalInstrs, 100*r.Report.HitRate, r.Report.Regions,
				r.Report.Stubs, r.Report.CoverSet90, r.Report.CountersHighWater)
		}), func() {}, nil
	default:
		return nil, nil, fmt.Errorf("unknown sink %q (table, csv, jsonl, none)", name)
	}
}

// printList writes the grid keys, then the workloads and selectors a grid
// accepts: every registered name and trace:<path>, but not asm:<path>.
func printList(w io.Writer) {
	fmt.Fprintln(w, "grid keys:")
	for _, k := range gridKeys {
		fmt.Fprintf(w, "  %-14s %s\n", k.key, k.doc)
	}
	cli.PrintList(w, false)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
