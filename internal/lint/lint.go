// Package lint is a small stdlib-only analyzer framework plus the
// repo-specific analyzers that machine-check the invariants the performance
// PRs established: hot paths stay allocation-free (hotpathalloc), pooled
// Reset methods touch every field (resetclean), and hot packages index state
// by dense address slices rather than maps (densemap). See docs/LINTING.md
// for the rules and the annotation grammar.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
)

// Analyzer is one named check. Per-package analyzers set Run, which
// inspects a single package through its Pass; whole-module analyzers set
// RunModule instead, which sees every loaded package and the shared call
// graph through a ModulePass. Exactly one of the two should be set; neither
// may retain its pass.
type Analyzer struct {
	Name      string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	*Package
	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Check:   p.analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned for stable file:line:col ordering.
type Diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
}

// String formats the diagnostic with its file path relative to root (or
// absolute if it does not sit under root).
func (d Diagnostic) String(root string) string {
	name := d.Pos.Filename
	if rel, err := filepath.Rel(root, name); err == nil && !filepath.IsAbs(rel) && rel[0] != '.' {
		name = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d:%d: %s: %s", name, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Run applies every analyzer to the loaded packages — per-package
// analyzers to each package, module analyzers to the whole set at once over
// a shared call graph — filters findings through the //lint:ignore
// directives, appends malformed-directive diagnostics, and returns the
// result sorted by file, line, column, check, and message.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	mod := NewModule(pkgs)
	dirs := map[string]*fileDirectives{}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fd := parseFileDirectives(pkg.Fset, f)
			dirs[pkg.Fset.Position(f.Pos()).Filename] = fd
			diags = append(diags, fd.malformed...)
		}
	}
	var found []Diagnostic
	report := func(d Diagnostic) { found = append(found, d) }
	for _, a := range analyzers {
		switch {
		case a.RunModule != nil:
			a.RunModule(&ModulePass{Module: mod, analyzer: a, report: report})
		case a.Run != nil:
			for _, pkg := range pkgs {
				a.Run(&Pass{Package: pkg, analyzer: a, report: report})
			}
		}
	}
	for _, d := range found {
		if !suppressed(dirs, d) {
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		switch {
		case a.Pos.Filename != b.Pos.Filename:
			return a.Pos.Filename < b.Pos.Filename
		case a.Pos.Line != b.Pos.Line:
			return a.Pos.Line < b.Pos.Line
		case a.Pos.Column != b.Pos.Column:
			return a.Pos.Column < b.Pos.Column
		case a.Check != b.Check:
			return a.Check < b.Check
		default:
			return a.Message < b.Message
		}
	})
	return diags
}

// suppressed reports whether an //lint:ignore directive in the diagnostic's
// file covers it.
func suppressed(dirs map[string]*fileDirectives, d Diagnostic) bool {
	fd, ok := dirs[d.Pos.Filename]
	if !ok {
		return false
	}
	for _, ig := range fd.ignores {
		if ig.suppresses(d.Check, d.Pos.Line) {
			ig.used = true
			return true
		}
	}
	return false
}
