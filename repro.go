// Package repro is the public entry point of the reproduction of
// Hiniker, Hazelwood and Smith, "Improving Region Selection in Dynamic
// Optimization Systems" (MICRO-38, 2005).
//
// It wires the internal substrates together: a workload program (package
// workloads) is interpreted by the VM (package vm) under the simulated
// dynamic optimization system (package dynopt), which drives one of the
// paper's region-selection algorithms (package core) against a simulated
// code cache (package codecache) and reports the paper's metrics (package
// metrics).
//
// Quick start:
//
//	rep, err := repro.RunWorkload("gcc", repro.SelectorLEI, repro.Options{})
//	fmt.Println(rep)
package repro

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/sweep"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Re-exported types so users of the facade can name results and tunables.
type (
	// Report is the full per-run metric set (hit rate, code expansion,
	// region transitions, cycle ratios, cover sets, exit domination,
	// profiling memory).
	Report = metrics.Report
	// Params are the selection-algorithm tunables; the zero value uses the
	// paper's published configuration.
	Params = core.Params
	// Selector is a pluggable region-selection algorithm.
	Selector = core.Selector
	// Workload is a named benchmark program generator.
	Workload = workloads.Workload
	// Program is an assembled simulated binary.
	Program = program.Program
	// Result bundles the report with the underlying cache and collector.
	Result = dynopt.Result
)

// Selector names accepted by NewSelector and RunWorkload.
const (
	SelectorNET     = sweep.NET
	SelectorLEI     = sweep.LEI
	SelectorNETComb = sweep.NETComb
	SelectorLEIComb = sweep.LEIComb
	// SelectorAdaptive is the per-phase meta-selector switching between
	// the four static policies online (DESIGN.md §7).
	SelectorAdaptive = sweep.Adaptive
	// Related-work schemes (paper §5).
	SelectorMojoNET = sweep.MojoNET
	SelectorBOA     = sweep.BOA
	SelectorWRS     = sweep.WRS
)

// SelectorNames lists the accepted selector names in presentation order.
func SelectorNames() []string { return sweep.SelectorNames() }

// NewSelector constructs a fresh selector by name. Selectors are stateful
// and single-use: build a new one per run.
func NewSelector(name string, params Params) (Selector, error) {
	return sweep.NewSelector(name, params)
}

// Options configures a run.
type Options struct {
	// Params tunes the selection algorithms (zero: paper defaults).
	Params Params
	// Scale overrides the workload's default scale when positive.
	Scale int
	// CacheLimitBytes bounds the code cache (0: unbounded, as in the paper).
	CacheLimitBytes int
	// MaxInstrs bounds interpretation (0: a large default).
	MaxInstrs uint64
}

// Run simulates prog under the selector and returns the full result.
func Run(prog *Program, sel Selector, opts Options) (Result, error) {
	return dynopt.Run(prog, dynopt.Config{
		Selector:        sel,
		CacheLimitBytes: opts.CacheLimitBytes,
		VM:              vm.Config{MaxInstrs: opts.MaxInstrs},
	})
}

// RunWorkload builds the named workload and simulates it under the named
// selector.
func RunWorkload(workload, selector string, opts Options) (Report, error) {
	w, ok := workloads.Get(workload)
	if !ok {
		names := workloads.Names()
		sort.Strings(names)
		return Report{}, fmt.Errorf("repro: unknown workload %q (known: %v)", workload, names)
	}
	sel, err := NewSelector(selector, opts.Params)
	if err != nil {
		return Report{}, err
	}
	res, err := Run(w.Build(opts.Scale), sel, opts)
	if err != nil {
		return Report{}, fmt.Errorf("repro: running %s under %s: %w", workload, selector, err)
	}
	res.Report.Workload = workload
	return res.Report, nil
}

// ParseAndRun assembles source text (the internal/asm syntax) and simulates
// it under the named selector — the quickest way to try an algorithm on a
// hand-written program.
func ParseAndRun(source, selector string, opts Options) (Report, error) {
	prog, err := asm.Parse(source)
	if err != nil {
		return Report{}, err
	}
	sel, err := NewSelector(selector, opts.Params)
	if err != nil {
		return Report{}, err
	}
	res, err := Run(prog, sel, opts)
	if err != nil {
		return Report{}, err
	}
	res.Report.Workload = "asm"
	return res.Report, nil
}

// Workloads returns every registered workload name.
func Workloads() []string { return workloads.Names() }

// SpecWorkloads returns the twelve SPECint2000-named benchmarks in the
// paper's figure order.
func SpecWorkloads() []string { return workloads.SpecNames() }

// GetWorkload returns a registered workload.
func GetWorkload(name string) (Workload, bool) { return workloads.Get(name) }

// StubBytes is the per-exit-stub size estimate used for cache sizing,
// matching the paper's assumption.
const StubBytes = codecache.StubBytes
