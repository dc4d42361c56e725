package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// DenseMapConfig scopes the densemap analyzer.
type DenseMapConfig struct {
	// Packages lists the import paths where dense address-indexed slices are
	// the established policy; map types with integer-underlying keys are
	// flagged only there.
	Packages []string
	// AllowFiles lists base file names (within hot packages) that are
	// allowed to keep maps wholesale — the deliberately map-based measured
	// paths.
	AllowFiles []string
}

// DenseMap returns the densemap analyzer: inside the configured hot
// packages it flags every map type whose key has an integer underlying type
// (isa.Addr, int, block indexes, ...) — the dense-state migration replaced
// those with address-indexed slices, and new ones regress both speed and
// steady-state allocation behavior. Per-file allowlisting covers the
// deliberately map-based measured paths; single sites use //lint:ignore.
func DenseMap(cfg DenseMapConfig) *Analyzer {
	hot := map[string]bool{}
	for _, p := range cfg.Packages {
		hot[p] = true
	}
	allow := map[string]bool{}
	for _, f := range cfg.AllowFiles {
		allow[f] = true
	}
	a := &Analyzer{
		Name: "densemap",
	}
	a.Run = func(pass *Pass) {
		if !hot[pass.Path] {
			return
		}
		for _, f := range pass.Files {
			name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
			if allow[name] {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				mt, ok := n.(*ast.MapType)
				if !ok {
					return true
				}
				kt := pass.Info.TypeOf(mt.Key)
				if kt == nil {
					return true
				}
				if b, ok := kt.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					pass.Reportf(mt.Pos(), "map[%s] state in hot package %s; use a dense address-indexed slice (docs/LINTING.md)", kt, pass.Path)
				}
				return true
			})
		}
	}
	return a
}
