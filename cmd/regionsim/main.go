// Command regionsim runs one program under one or more region-selection
// algorithms and prints the full metric report of each run:
//
//	regionsim -workload gcc -selector lei
//	regionsim -workload gcc -selector net,lei      # reports, then a side-by-side table
//	regionsim -workload mcf -selector all          # every selector side by side
//	regionsim -workload trace:gzip.trace           # replay a cmd/tracerec recording
//	regionsim -workload asm:examples/programs/spin.asm -selector lei
//	regionsim -list                                # list workloads and selectors
//
// When more than one selector runs, the text output ends with a table of
// the headline metrics, one column per selector, plus each later
// selector's ratio to the first. cmd/traceviz renders the selected regions;
// cmd/tracerec records trace files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/cli"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/program"
	"repro/internal/sweep"
)

func main() {
	workload := flag.String("workload", "fig2-loop-call", "workload: a registered name, trace:<path> or asm:<path> (see -list)")
	selector := flag.String("selector", "net", "comma-separated selector names, or all (see -list)")
	scale := flag.Int("scale", 0, "workload scale override (registered workloads only)")
	opt := flag.Bool("opt", false, "print the optimizer summary (paper §4.4)")
	cacheLimit := flag.Int("cachelimit", 0, "bounded code cache size in bytes (0 = unbounded)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of text")
	saveCache := flag.String("savecache", "", "write the final code-cache snapshot to this file")
	csvOut := flag.String("csv", "", "write per-region statistics as CSV to this file")
	loadCache := flag.String("loadcache", "", "preload a code-cache snapshot (same workload) before the run")
	list := flag.Bool("list", false, "list workloads and selectors, then exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	if *list {
		cli.PrintList(os.Stdout, true)
		return
	}

	target, err := cli.Resolve(*workload, *scale)
	if err != nil {
		fail(err)
	}
	sels := strings.Split(*selector, ",")
	if *selector == "all" {
		sels = sweep.SelectorNames()
	}
	// Build every selector before the first run, so a typo fails fast.
	selectors := make([]core.Selector, len(sels))
	for i, s := range sels {
		if selectors[i], err = sweep.NewSelector(s, core.Params{}); err != nil {
			fail(err)
		}
	}
	var preload []codecache.RegionSnapshot
	if *loadCache != "" {
		f, err := os.Open(*loadCache)
		if err != nil {
			fail(err)
		}
		preload, err = codecache.ReadSnapshot(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	}
	reports := make([]metrics.Report, len(sels))
	for i, sel := range selectors {
		res, err := target.Run(dynopt.Config{
			Selector:        sel,
			CacheLimitBytes: *cacheLimit,
			Preload:         preload,
		})
		if err != nil {
			fail(err)
		}
		reports[i] = res.Report
		if *csvOut != "" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fail(err)
			}
			err = metrics.WriteRegionsCSV(f, res.Cache)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail(err)
			}
		}
		if *saveCache != "" {
			f, err := os.Create(*saveCache)
			if err != nil {
				fail(err)
			}
			err = res.Cache.WriteSnapshot(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail(err)
			}
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res.Report); err != nil {
				fail(err)
			}
		} else {
			fmt.Print(res.Report)
		}
		if *opt {
			printOptimizer(target.Prog, res.Cache)
		}
		fmt.Println()
	}
	if len(sels) > 1 && !*jsonOut {
		printComparison(target.Name, sels, reports)
	}
}

// comparisonRows are the headline metrics of the side-by-side table, each
// with the format of its value columns.
var comparisonRows = []struct {
	name, format string
	value        func(r *metrics.Report) float64
}{
	{"hit rate %", "%14.2f", func(r *metrics.Report) float64 { return 100 * r.HitRate }},
	{"regions", "%14.0f", func(r *metrics.Report) float64 { return float64(r.Regions) }},
	{"code expansion", "%14.0f", func(r *metrics.Report) float64 { return float64(r.CodeExpansion) }},
	{"exit stubs", "%14.0f", func(r *metrics.Report) float64 { return float64(r.Stubs) }},
	{"est. cache bytes", "%14.0f", func(r *metrics.Report) float64 { return float64(r.EstimatedBytes) }},
	{"transitions", "%14.0f", func(r *metrics.Report) float64 { return float64(r.Transitions) }},
	{"transition reach B", "%14.0f", func(r *metrics.Report) float64 { return float64(r.TransitionReach) }},
	{"spanned cycles %", "%14.1f", func(r *metrics.Report) float64 { return 100 * r.SpannedRatio }},
	{"executed cycles %", "%14.1f", func(r *metrics.Report) float64 { return 100 * r.ExecutedRatio }},
	{"cover90", "%14.0f", func(r *metrics.Report) float64 { return float64(r.CoverSet90) }},
	{"counters high-water", "%14.0f", func(r *metrics.Report) float64 { return float64(r.CountersHighWater) }},
	{"exit-dominated %", "%14.1f", func(r *metrics.Report) float64 { return 100 * r.ExitDominatedRatio }},
	{"links", "%14.0f", func(r *metrics.Report) float64 { return float64(r.Links) }},
}

// printComparison prints the headline metrics of every run side by side,
// then each later run's ratio to the first ("-" where the first is 0).
func printComparison(workload string, sels []string, reports []metrics.Report) {
	fmt.Printf("workload %q: %s\n\n", workload, strings.Join(sels, " vs "))
	fmt.Printf("%-22s", "metric")
	for _, s := range sels {
		fmt.Printf(" %14s", s)
	}
	for _, s := range sels[1:] {
		fmt.Printf(" %10s", s+"/"+sels[0])
	}
	fmt.Println()
	for _, row := range comparisonRows {
		fmt.Printf("%-22s", row.name)
		for i := range reports {
			fmt.Printf(" "+row.format, row.value(&reports[i]))
		}
		first := row.value(&reports[0])
		for i := range reports[1:] {
			ratio := "-"
			if first != 0 {
				ratio = fmt.Sprintf("%.3f", row.value(&reports[1+i])/first)
			}
			fmt.Printf(" %10s", ratio)
		}
		fmt.Println()
	}
}

func printOptimizer(p *program.Program, cache *codecache.Cache) {
	s := optimizer.Summarize(p, cache)
	fmt.Printf("  optimizer: cyclic=%d/%d fallthrough-edges=%d/%d jumps-removed=%d invariant=%d hoistable=%d\n",
		s.Cyclic, s.Regions, s.FallThroughs, s.PossibleFallEdges,
		s.JumpsRemoved, s.InvariantCandidates, s.Hoistable)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "regionsim:", err)
	os.Exit(1)
}
