// Package cli holds what the single-program commands (regionsim, traceviz)
// share with each other and with sweep: the workload-reference grammar and
// the workload and selector list that -list prints.
//
// A workload reference takes one of three forms:
//
//	gcc               a registered workload, built at -scale
//	trace:<path>      a recorded stream (cmd/tracerec), replayed without the VM
//	asm:<path>        a program in internal/asm syntax, run live
package cli

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/dynopt"
	"repro/internal/program"
	"repro/internal/sweep"
	"repro/internal/tracestream"
	"repro/internal/workloads"
)

// asmPrefix marks a workload reference as an assembly source file.
const asmPrefix = "asm:"

// Target is a resolved workload reference: the program to simulate, the
// name its reports carry, and, for a trace reference, the recording that
// stands in for the VM.
type Target struct {
	// Name is the registered workload name; for a trace it is the
	// workload its header records, and for assembly the file path.
	Name string
	Prog *program.Program
	// corpus is the decoded recording of a trace reference, else nil.
	corpus *tracestream.Corpus
}

// Resolve resolves a workload reference. Scale applies to registered
// workloads only: a trace records its own scale and an assembly file has
// none, so a nonzero scale with either is an error. Every error names ref.
func Resolve(ref string, scale int) (*Target, error) {
	path, isAsm := strings.CutPrefix(ref, asmPrefix)
	if !isAsm && !tracestream.IsRef(ref) {
		w, ok := workloads.Get(ref)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (try -list)", ref)
		}
		return &Target{Name: ref, Prog: w.Build(scale)}, nil
	}
	if scale != 0 {
		return nil, fmt.Errorf("workload %q: -scale applies only to registered workloads", ref)
	}
	if isAsm {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("workload %q: %w", ref, err)
		}
		p, err := asm.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("workload %q: %w", ref, err)
		}
		return &Target{Name: path, Prog: p}, nil
	}
	if tracestream.RefPath(ref) == "" {
		return nil, fmt.Errorf("workload %q: empty trace path", ref)
	}
	// A throwaway store: the one corpus lives as long as the target.
	c, err := tracestream.NewStore(0).LoadRef(ref)
	if err != nil {
		return nil, fmt.Errorf("workload %q: %w", ref, err)
	}
	return &Target{Name: c.Header().Workload, Prog: c.Prog, corpus: c}, nil
}

// Run simulates the target under cfg and stamps the target's name on the
// report. A trace target replays its recording (Corpus.Replay), as a sweep
// shard replays a trace cell, so its report equals the live run of the
// recorded workload and scale; every other target runs live.
func (t *Target) Run(cfg dynopt.Config) (dynopt.Result, error) {
	var res dynopt.Result
	var err error
	if t.corpus != nil {
		res, err = t.corpus.Replay(cfg)
	} else {
		res, err = dynopt.Run(t.Prog, cfg)
	}
	if err != nil {
		return dynopt.Result{}, err
	}
	res.Report.Workload = t.Name
	return res, nil
}

// PrintList writes the registered workloads, the reference forms a command
// accepts beside them, and the selector names. Every command takes
// trace:<path>; withAsm reports whether it also takes asm:<path>, which Resolve
// does and sweep grids do not.
func PrintList(w io.Writer, withAsm bool) {
	names := workloads.Names()
	sort.Strings(names)
	fmt.Fprintln(w, "workloads:")
	for _, n := range names {
		wl, _ := workloads.Get(n)
		fmt.Fprintf(w, "  %-18s %s\n", n, wl.Description)
	}
	fmt.Fprintf(w, "  %-18s %s\n", tracestream.RefPrefix+"<path>",
		"recorded branch-event stream (cmd/tracerec); replays through the selectors without the VM")
	if withAsm {
		fmt.Fprintf(w, "  %-18s %s\n", asmPrefix+"<path>",
			"program in internal/asm syntax (e.g. examples/programs/spin.asm)")
	}
	fmt.Fprintln(w, "selectors:")
	for _, s := range sweep.SelectorNames() {
		fmt.Fprintf(w, "  %s\n", s)
	}
}
