// Command lint runs the repo's invariant analyzers (hotpathalloc,
// resetclean, densemap, crosshot, epochguard, scratchclean — see
// docs/LINTING.md) over the module and exits non-zero on any diagnostic.
// scripts/check.sh runs it after tier-1.
//
// Usage:
//
//	go run ./cmd/lint [-gha] [patterns...]
//
// Patterns default to ./... and accept ./dir and ./dir/... forms relative
// to the module root. Output is plain file:line:col lines by default, or
// with -gha GitHub Actions ::error workflow commands, which CI logs render
// as pull-request annotations.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	ghaOut := flag.Bool("gha", false, "emit diagnostics as GitHub Actions ::error annotations")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, module, err := lint.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	loader := lint.NewLoader(root, module)
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	diags := lint.Run(pkgs, Analyzers(module))
	for _, d := range diags {
		if *ghaOut {
			fmt.Println(lint.GHALine(root, d))
		} else {
			fmt.Println(d.String(root))
		}
	}
	if len(diags) > 0 {
		if !*ghaOut {
			fmt.Fprintf(os.Stderr, "lint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// Analyzers returns the repo's analyzer set, configured for the module's
// hot packages.
//
// densemap: the one allowlisted file holds the §5 related-work baselines
// (BOA/WRS), comparison selectors outside the pooled sweep loop. (RegionCFG
// was allowlisted until its start index went dense; the combination path is
// now fully //lint:hotpath-enforced.)
//
// crosshot: internal/difftest holds the frozen reference selectors the
// differential harness compares against — they satisfy core.Selector in the
// type system, so conservative dispatch resolution would otherwise route
// hot interface calls into them, but only tests ever instantiate them. The
// related.go baselines are cold for the same reason.
func Analyzers(module string) []*lint.Analyzer {
	return []*lint.Analyzer{
		lint.HotPathAlloc(),
		lint.ResetClean(),
		lint.CrossHot(lint.CrossHotConfig{
			ColdPackages: []string{
				module + "/internal/difftest",
				// Examples implement core.Selector to demonstrate the API;
				// conservative dispatch resolution would otherwise route hot
				// interface calls into them, but nothing outside their own
				// main functions ever runs them.
				module + "/examples/...",
			},
			ColdFiles: []string{"related.go"},
		}),
		lint.EpochGuard(),
		lint.ScratchClean(),
		lint.DenseMap(lint.DenseMapConfig{
			Packages: []string{
				module + "/internal/vm",
				module + "/internal/core",
				module + "/internal/profile",
				module + "/internal/metrics",
				module + "/internal/codecache",
				module + "/internal/sweep",
			},
			AllowFiles: []string{"related.go"},
		}),
	}
}
