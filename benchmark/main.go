// Command benchmark is the repository's end-to-end benchmark. It drives
// four workloads through the public entry points the command-line tools
// use — experiments.RunAll, sweep.Runner.RunGrid, sweep.Shard.Run and
// sweepnet.RunGrid against in-process sweepnet.Serve workers — checks every
// delivered report against a reference, and prints every end-to-end metric
// by name with its unit. With -trace 1 it also stages each pass by hand,
// layer by layer, and prints the per-layer metrics instead. README.md
// describes the workloads, the metrics and how to compare two commits.
//
// Usage:
//
//	bash benchmark/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1]
//	                      [-procs n] [-out run.json] [-spans spans.json]
//	bash benchmark/run.sh -compare a1.json,a2.json,... b1.json,b2.json,...
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to measure (default: all of "+strings.Join(workloadNames, ", ")+")")
	seed := fs.Int64("seed", 1, "seed the workload inputs are drawn from")
	seconds := fs.Float64("seconds", 25, "measuring time per workload, in seconds")
	trace := fs.Int("trace", 0, "1 stages traced passes and reports the per-layer metrics")
	procs := fs.Int("procs", 1, "GOMAXPROCS and local shard count; at most the number of CPUs")
	out := fs.String("out", "", "write the run record with its environment stamp to this JSON file")
	spans := fs.String("spans", "", "write the traced passes' spans to this JSON file (needs -trace 1)")
	compare := fs.String("compare", "", "comma-separated run records of the baseline; the argument lists the other side's")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two comma-separated lists of run records")
			return 2
		}
		return compareMain(strings.Split(*compare, ","), strings.Split(fs.Arg(0), ","), stdout, stderr)
	}
	names := workloadNames
	switch {
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	case *spans != "" && *trace != 1:
		fmt.Fprintln(stderr, "benchmark: -spans needs -trace 1")
		return 2
	case *procs < 1 || *procs > runtime.NumCPU():
		fmt.Fprintf(stderr, "benchmark: -procs %d outside 1..%d, the CPUs this process may use\n", *procs, runtime.NumCPU())
		return 2
	case *workload != "":
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	runtime.GOMAXPROCS(*procs)

	// Scratch files stay inside the directory the benchmark runs from.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	rc := runConfig{
		config:    config{shape: fullShape, seed: *seed, procs: *procs, workDir: workDir},
		seconds:   *seconds,
		minPasses: 50,
		setupReps: 9,
		trace:     *trace == 1,
		tracedMin: 5,
	}
	tr := newTracer()
	var results []*result
	for _, name := range names {
		res, err := measure(context.Background(), name, rc, tr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		report(stdout, res)
		results = append(results, res)
	}
	if *out != "" {
		rec := runFile{Env: stamp(rc), Workloads: map[string]*result{}}
		for _, r := range results {
			rec.Workloads[r.Workload] = r
		}
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *spans != "" {
		if err := writeJSON(*spans, tr.spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, ok := resultLine(results, rc.trace)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// resultLine renders the closing JSON object and reports whether every job
// of every workload delivered its reference report. With one workload the
// metric names are bare; with several they carry the workload's name.
func resultLine(results []*result, traced bool) (string, bool) {
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		if r.Failed > 0 || len(r.Problems) > 0 {
			line.Correct = false
		}
		ms := r.Metrics
		if traced {
			ms = r.Layers
		}
		for k, v := range ms {
			if len(results) > 1 {
				k = r.Workload + "." + k
			}
			line.Metrics[k] = v
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b), line.Correct
}

// report prints a workload's measurement for a reader.
func report(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s: %d jobs and %.2f Minstr per pass; reference %.2f s (not in setup_s); %d set-ups %.3f s\n",
		r.Workload, r.JobsPerPass, float64(r.InstrsPerPass)/1e6, r.ReferenceS, len(r.SetupS), r.SetupS)
	for _, m := range endToEnd {
		v := r.Metrics[m.Name]
		fmt.Fprintf(w, "  %-22s %12.4f %-8s", m.Name, v.Value, v.Unit)
		if m.Name == "pass_ms_p5" {
			fmt.Fprintf(w, " (%d passes)", len(r.PassMS))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  not gated: pass_ms_p50 %.4f ms, pass_ms_p90 %.4f ms", r.P50MS, r.P90MS)
	if r.TailPercentile > 0 {
		fmt.Fprintf(w, ", tail p%g %.4f ms", r.TailPercentile, r.TailMS)
	}
	if r.Layers == nil {
		// Traced passes allocate too, so only an untraced run measures it.
		fmt.Fprintf(w, "; alloc_mb_per_pass %.4f MB", r.AllocMBPerPass)
	}
	fmt.Fprintf(w, "; fail_ratio %g (%d of %d jobs failed)\n",
		ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	if r.Layers != nil {
		fmt.Fprintf(w, "  traced passes: %d\n", r.TracedPasses)
		for _, m := range perLayer {
			v := r.Layers[m.Name]
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
		fmt.Fprintf(w, "  ledger (share of the untraced median pass):")
		for _, l := range []string{"workloads", "vm", "tracestream.record", "dynopt", "core", "metrics", "sweep.engine"} {
			fmt.Fprintf(w, " %s %.1f%%", l, 100*r.Ledger[l])
		}
		fmt.Fprintf(w, "; staged %.1f%%\n", 100*r.Ledger["staged"])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	for _, p := range r.Warnings {
		fmt.Fprintf(w, "  WARNING: %s\n", p)
	}
}

// runFile is the record -out writes and -compare reads.
type runFile struct {
	Env       envStamp           `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

// envStamp records what a run's numbers depend on besides the code.
type envStamp struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func stamp(rc runConfig) envStamp {
	e := envStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Seed:       rc.seed,
		Seconds:    rc.seconds,
		Traced:     rc.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Revision = s.Value
			}
		}
	}
	return e
}

// cpuModel returns the first model name /proc/cpuinfo lists, or "" where
// there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
