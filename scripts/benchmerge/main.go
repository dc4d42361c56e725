// Command benchmerge folds raw `go test -bench` output (stdin) into a
// BENCH_pipeline.json-style document: benchmarks present in the new output
// replace their previous runs, benchmarks absent from it keep the runs
// already recorded, so re-running a subset never clobbers the rest of the
// file. Each run is stamped with the machine it ran on — the input's
// `cpu:` header line and the GOMAXPROCS suffix of the benchmark name — so a
// recorded number always carries its machine. A benchmark's conditions —
// live or replayed, memo cold or warm — are a hand-written note on its
// entry that re-recording keeps. Used by scripts/bench.sh.
//
//	go test -bench ... -benchmem . | go run ./scripts/benchmerge -out BENCH_pipeline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

type doc struct {
	Benchmarks map[string]*entry `json:"benchmarks"`
}

type entry struct {
	// Conditions states how the benchmark runs (live or replayed, memo
	// cold or warm); written by hand and kept when the runs are replaced.
	Conditions string `json:"conditions,omitempty"`
	Runs       []run  `json:"runs"`
}

// run mirrors one benchmark result line. Pointer fields render as null when
// the benchmark does not report that metric.
type run struct {
	Iters         int64    `json:"iters"`
	NsPerOp       *float64 `json:"ns_per_op"`
	BytesPerOp    *float64 `json:"bytes_per_op"`
	AllocsPerOp   *float64 `json:"allocs_per_op"`
	NsPerInstr    *float64 `json:"ns_per_instr"`
	BytesPerInstr *float64 `json:"bytes_per_instr"`
	JobsPerSec    *float64 `json:"jobs_per_s,omitempty"`
	MinstrPerSec  *float64 `json:"minstr_per_s,omitempty"`
	SkippedPerEv  *float64 `json:"skipped_per_event,omitempty"`
	CPU           string   `json:"cpu,omitempty"`
	GOMAXPROCS    int      `json:"gomaxprocs,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_pipeline.json", "JSON file to merge results into")
	flag.Parse()

	d := doc{Benchmarks: map[string]*entry{}}
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &d); err != nil {
			fail(fmt.Errorf("parsing existing %s: %w", *out, err))
		}
		if d.Benchmarks == nil {
			d.Benchmarks = map[string]*entry{}
		}
	} else if !os.IsNotExist(err) {
		fail(err)
	}

	if err := merge(&d, os.Stdin); err != nil {
		fail(err)
	}

	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
}

// merge folds raw benchmark output into d: benchmarks seen in the input
// replace their prior runs wholesale and keep their conditions.
func merge(d *doc, in io.Reader) error {
	replaced := map[string]bool{}
	cpu := ""
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if c, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok {
			cpu = c
			continue
		}
		name, r, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		r.CPU = cpu
		if !replaced[name] {
			replaced[name] = true
			e := &entry{}
			if old := d.Benchmarks[name]; old != nil {
				e.Conditions = old.Conditions
			}
			d.Benchmarks[name] = e
		}
		e := d.Benchmarks[name]
		e.Runs = append(e.Runs, r)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(replaced) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	return nil
}

// parseLine decodes one `go test -bench` result line: the benchmark name,
// whose trailing -GOMAXPROCS it strips into the run (go test omits the
// suffix when GOMAXPROCS is 1), the iteration count, and then value/unit
// pairs.
func parseLine(line string) (string, run, bool) {
	f := strings.Fields(line)
	if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", run{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", run{}, false
	}
	name, procs := f[0], 1
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	r := run{Iters: iters, GOMAXPROCS: procs}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", run{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = &v
		case "B/op":
			r.BytesPerOp = &v
		case "allocs/op":
			r.AllocsPerOp = &v
		case "ns/instr":
			r.NsPerInstr = &v
		case "B/instr":
			r.BytesPerInstr = &v
		case "jobs/s":
			r.JobsPerSec = &v
		case "Minstr/s":
			r.MinstrPerSec = &v
		case "skipped/event":
			r.SkippedPerEv = &v
		}
	}
	return name, r, true
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmerge:", err)
	os.Exit(1)
}
