package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	for _, c := range []struct {
		line  string
		name  string
		procs int
		want  run
	}{
		{"BenchmarkSweepMemo/memo=on-2   \t 12\t 95000000 ns/op\t 2400 jobs/s\t 1024 B/op\t 9 allocs/op",
			"BenchmarkSweepMemo/memo=on", 2,
			run{Iters: 12, NsPerOp: f(95e6), JobsPerSec: f(2400), BytesPerOp: f(1024), AllocsPerOp: f(9)}},
		{"BenchmarkPipeline \t 3\t 400000000 ns/op\t 8.10 ns/instr\t 0.50 B/instr",
			"BenchmarkPipeline", 1,
			run{Iters: 3, NsPerOp: f(4e8), NsPerInstr: f(8.1), BytesPerInstr: f(0.5)}},
		{"BenchmarkReplay/replay-2 \t 9000\t 104446 ns/op\t 2.62 ns/event\t 0.33 ns/instr\t 0.70 skipped/event",
			"BenchmarkReplay/replay", 2,
			run{Iters: 9000, NsPerOp: f(104446), NsPerInstr: f(0.33), SkippedPerEv: f(0.7)}},
		{"BenchmarkVMInterpret \t 2500\t 470000 ns/op\t 191.1 Minstr/s",
			"BenchmarkVMInterpret", 1,
			run{Iters: 2500, NsPerOp: f(470000), MinstrPerSec: f(191.1)}},
	} {
		name, got, ok := parseLine(c.line)
		if !ok || name != c.name || got.GOMAXPROCS != c.procs || got.Iters != c.want.Iters {
			t.Errorf("parseLine(%q) = %q, %+v, %v; want %q with GOMAXPROCS %d", c.line, name, got, ok, c.name, c.procs)
			continue
		}
		for _, m := range []struct {
			unit      string
			got, want *float64
		}{
			{"ns/op", got.NsPerOp, c.want.NsPerOp},
			{"B/op", got.BytesPerOp, c.want.BytesPerOp},
			{"allocs/op", got.AllocsPerOp, c.want.AllocsPerOp},
			{"ns/instr", got.NsPerInstr, c.want.NsPerInstr},
			{"B/instr", got.BytesPerInstr, c.want.BytesPerInstr},
			{"jobs/s", got.JobsPerSec, c.want.JobsPerSec},
			{"skipped/event", got.SkippedPerEv, c.want.SkippedPerEv},
			{"Minstr/s", got.MinstrPerSec, c.want.MinstrPerSec},
		} {
			if (m.got == nil) != (m.want == nil) || m.got != nil && *m.got != *m.want {
				t.Errorf("parseLine(%q) %s = %v, want %v", c.line, m.unit, m.got, m.want)
			}
		}
	}
	for _, line := range []string{"", "goos: linux", "cpu: Intel(R) Xeon(R)", "BenchmarkX", "BenchmarkX abc 1 ns/op", "BenchmarkX 10 fast ns/op", "PASS"} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted a non-result line", line)
		}
	}
}

// TestMergeKeepsConditions pins the merge: a re-recorded benchmark's runs
// are replaced and its conditions kept, and a benchmark absent from the
// input keeps its runs.
func TestMergeKeepsConditions(t *testing.T) {
	d := doc{Benchmarks: map[string]*entry{
		"BenchmarkA": {Conditions: "replayed, memo warm", Runs: []run{{Iters: 1}}},
		"BenchmarkB": {Runs: []run{{Iters: 2}}},
	}}
	in := "cpu: Test CPU\nBenchmarkA-2 \t 7\t 100 ns/op\nBenchmarkA-2 \t 8\t 90 ns/op\n"
	if err := merge(&d, strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	a := d.Benchmarks["BenchmarkA"]
	if a.Conditions != "replayed, memo warm" || len(a.Runs) != 2 || a.Runs[0].Iters != 7 || a.Runs[1].CPU != "Test CPU" {
		t.Errorf("re-recorded entry = %+v, want its conditions and the two new runs", a)
	}
	if b := d.Benchmarks["BenchmarkB"]; len(b.Runs) != 1 || b.Runs[0].Iters != 2 {
		t.Errorf("untouched entry = %+v, want its old run", b)
	}
	if err := merge(&d, strings.NewReader("PASS\n")); err == nil {
		t.Error("merge accepted input without benchmark lines")
	}
}
