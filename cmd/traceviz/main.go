// Command traceviz runs a program under a selector and renders each
// selected region against the program's disassembly, making it easy to see
// what the algorithms picked — which traces span cycles, where exit stubs
// fall, and how combined regions branch internally:
//
//	traceviz -workload fig3-nested-loops -selector lei
//	traceviz -workload gzip -selector lei+comb -disasm
//	traceviz -workload asm:examples/programs/spin.asm
//	traceviz -workload trace:gzip.trace       # regions of a cmd/tracerec recording
//
// -workload takes the same references as cmd/regionsim (see internal/cli).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/dynopt"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/program"
	"repro/internal/sweep"
)

func main() {
	workload := flag.String("workload", "fig3-nested-loops", "workload: a registered name, trace:<path> or asm:<path> (see regionsim -list)")
	selector := flag.String("selector", "lei", "selector name")
	scale := flag.Int("scale", 0, "workload scale override (registered workloads only)")
	disasm := flag.Bool("disasm", false, "print full program disassembly first")
	emit := flag.Bool("emit", false, "also print each region's emitted cache image (layout + stubs)")
	dot := flag.String("dot", "", "write the region link graph as Graphviz DOT to this file")
	flag.Parse()

	target, err := cli.Resolve(*workload, *scale)
	if err != nil {
		fail(err)
	}
	prog := target.Prog
	sel, err := sweep.NewSelector(*selector, core.Params{})
	if err != nil {
		fail(err)
	}
	res, err := target.Run(dynopt.Config{Selector: sel})
	if err != nil {
		fail(err)
	}
	if *disasm {
		fmt.Println(prog.Disassemble(0, isa.Addr(prog.Len())))
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fail(err)
		}
		err = metrics.WriteRegionGraphDOT(f, res.Cache, res.Collector)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
	}
	fmt.Printf("%s under %s: %d regions, %d instructions copied, %d stubs\n\n",
		target.Name, *selector, res.Report.Regions, res.Report.CodeExpansion, res.Report.Stubs)
	for _, r := range res.Cache.AllRegions() {
		head := fmt.Sprintf("region %d (%s)", r.ID, r.Kind)
		if r.Cyclic {
			head += " [spans cycle]"
		}
		fmt.Printf("%s  entry=%d  blocks=%d  instrs=%d  stubs=%d  entered=%d  traversals=%d  cycle-traversals=%d\n",
			head, r.Entry, len(r.Blocks), r.Instrs, r.Stubs, r.Entries, r.Traversals, r.CycleTraversals)
		for i, b := range r.Blocks {
			var succs []string
			for _, s := range r.Succs[i] {
				if s == 0 {
					succs = append(succs, "entry")
				} else {
					succs = append(succs, fmt.Sprintf("@%d", r.Blocks[s].Start))
				}
			}
			arrow := ""
			if len(succs) > 0 {
				arrow = " -> " + strings.Join(succs, ", ")
			}
			fn := ""
			if f, ok := prog.FuncAt(b.Start); ok {
				fn = " (" + f.Name + ")"
			}
			fmt.Printf("  block @%-5d len=%-3d%s%s\n", b.Start, b.Len, fn, arrow)
			for a := b.Start; a < b.Start+isa.Addr(b.Len); a++ {
				fmt.Printf("    %4d  %s\n", a, prog.At(a))
			}
		}
		if *emit {
			printEmitted(prog, r)
		}
		fmt.Println()
	}
}

func printEmitted(prog *program.Program, r *codecache.Region) {
	em, err := optimizer.Emit(prog, r)
	if err != nil {
		fmt.Printf("  (emit failed: %v)\n", err)
		return
	}
	fmt.Printf("  emitted image: %d body + %d stub instrs (jumps removed=%d inserted=%d inverted=%d)\n",
		em.BodyLen, len(em.Stubs), em.JumpsRemoved, em.JumpsInserted, em.BranchesInverted)
	for off, in := range em.Code {
		marker := ""
		for bi, bo := range em.BlockOffsets {
			if bo == off {
				marker = fmt.Sprintf("  <- block @%d", r.Blocks[bi].Start)
			}
		}
		if off == em.BodyLen {
			fmt.Println("    ---- stubs ----")
		}
		fmt.Printf("    %4d  %s%s\n", off, in, marker)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "traceviz:", err)
	os.Exit(1)
}
