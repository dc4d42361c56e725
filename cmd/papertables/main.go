// Command papertables regenerates every table and figure of the paper's
// evaluation on the synthetic benchmark suite:
//
//	papertables              # all figures
//	papertables -fig fig9    # one figure
//	papertables -scale 2000  # override workload scale
//	papertables -list        # list figure IDs
//
// Absolute values differ from the paper (the workloads are synthetic
// stand-ins for SPECint2000), but each figure's takeaway line states the
// paper's expected shape so the two can be compared directly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

func main() {
	fig := flag.String("fig", "", "figure ID to regenerate (default: all paper figures); see -list")
	scale := flag.Int("scale", 0, "workload scale override (0 = per-workload default)")
	sweeps := flag.Bool("sweeps", false, "also run the sensitivity sweeps and ablations")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored Markdown instead of plain tables")
	list := flag.Bool("list", false, "list figure IDs and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.FigureIDs() {
			fmt.Println(id)
		}
		for _, id := range experiments.ExtraIDs() {
			fmt.Println(id)
		}
		return
	}

	ids := experiments.FigureIDs()
	if *sweeps {
		ids = append(ids, experiments.ExtraIDs()...)
	}
	if *fig != "" {
		ids = strings.Split(*fig, ",")
	}

	isExtra := map[string]bool{}
	for _, id := range experiments.ExtraIDs() {
		isExtra[id] = true
	}
	var res *experiments.Results
	needShared := false
	for _, id := range ids {
		if !isExtra[strings.TrimSpace(id)] {
			needShared = true
		}
	}
	if needShared {
		fmt.Fprintf(os.Stderr, "running %d benchmarks x %d selectors (scale=%d)...\n",
			len(workloads.SpecNames()), len(experiments.AllSelectors()), *scale)
		var err error
		res, err = experiments.RunAll(context.Background(), *scale, experiments.DefaultParams())
		if err != nil {
			fmt.Fprintln(os.Stderr, "papertables:", err)
			os.Exit(1)
		}
	}
	// One Runner serves every extension study, so each program is recorded
	// once per invocation and replayed by every study that runs it.
	runner := sweep.NewRunner()
	for i, id := range ids {
		id = strings.TrimSpace(id)
		var f experiments.Figure
		var err error
		if isExtra[id] {
			fmt.Fprintf(os.Stderr, "running %s (scale=%d)...\n", id, *scale)
			f, err = experiments.BuildExtra(runner, id, *scale)
		} else {
			f, err = experiments.Build(id, res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "papertables:", err)
			os.Exit(1)
		}
		if i > 0 {
			fmt.Println()
		}
		if *markdown {
			fmt.Print(f.Markdown())
		} else {
			fmt.Print(f)
		}
	}
}
