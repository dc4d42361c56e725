package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// CrossHotConfig scopes the crosshot analyzer.
type CrossHotConfig struct {
	// ColdPackages lists import paths whose declared methods are never
	// considered dispatch targets of a hot interface call and whose
	// functions are never reported as hot callees: test-support packages
	// (frozen reference selectors) that production hot paths can reach only
	// in the type system, never at run time. An entry ending in "/..."
	// covers the whole subtree.
	ColdPackages []string
	// ColdFiles lists base file names whose declared functions get the same
	// exemption within otherwise-hot packages — the related-work baseline
	// selectors that only comparison harnesses instantiate.
	ColdFiles []string
}

// CrossHot returns the crosshot analyzer: using the module call graph, it
// follows every call edge out of a hot function (//lint:hotpath roots plus
// their dominated callees, the same hot set hotpathalloc checks) across a
// package boundary, and reports any such edge whose target is neither
// //lint:hotpath-annotated nor provably allocation-free. Interface-dispatch
// edges are resolved conservatively: every module type whose method set
// satisfies the interface is a possible callee, except implementations from
// the configured cold packages/files. Call sites on cold sub-paths (nil
// guards, error returns — the hotpathalloc exemptions) are skipped.
//
// This closes the per-package blind spot: hotpathalloc enforces the
// no-allocation discipline inside each package, and crosshot guarantees the
// discipline cannot silently lapse at a package boundary — a hot call into
// another package lands either in audited (annotated) code or in code the
// analyzer itself can prove allocation-free.
func CrossHot(cfg CrossHotConfig) *Analyzer {
	coldPkg := map[string]bool{}
	var coldTrees []string
	for _, p := range cfg.ColdPackages {
		if tree, ok := strings.CutSuffix(p, "/..."); ok {
			coldTrees = append(coldTrees, tree)
			continue
		}
		coldPkg[p] = true
	}
	coldFile := map[string]bool{}
	for _, f := range cfg.ColdFiles {
		coldFile[f] = true
	}
	a := &Analyzer{
		Name: "crosshot",
	}
	a.RunModule = func(pass *ModulePass) {
		g := pass.Graph()
		cold := func(n *Node) bool {
			if coldPkg[n.Pkg.Path] {
				return true
			}
			for _, tree := range coldTrees {
				if n.Pkg.Path == tree || strings.HasPrefix(n.Pkg.Path, tree+"/") {
					return true
				}
			}
			file := filepath.Base(pass.Fset.Position(n.Decl.Pos()).Filename)
			return coldFile[file]
		}
		for _, n := range g.NodeList() {
			if !n.Hot || cold(n) {
				continue
			}
			// Report one diagnostic per offending callee, but deduplicate
			// identical (site line, callee) pairs arising from repeated
			// resolution of the same dynamic call.
			seen := map[string]bool{}
			for _, e := range n.Out {
				callee := e.Callee
				if callee == nil || callee.Pkg == n.Pkg {
					continue
				}
				if callee.Annotated || cold(callee) || g.AllocFree(callee) {
					continue
				}
				if coldExempt(n.Pkg.Info, e.Site, e.Stack) {
					continue
				}
				name := funcDisplayName(callee)
				key := fmt.Sprintf("%d:%s", pass.Fset.Position(e.Site.Pos()).Line, name)
				if seen[key] {
					continue
				}
				seen[key] = true
				via := ""
				if e.Dynamic {
					via = fmt.Sprintf(" (via %s dispatch)", funcOwner(e.Iface))
				}
				pass.Reportf(e.Site.Pos(),
					"hot call into %s.%s%s, which is neither //lint:hotpath nor provably allocation-free",
					shortPkgPath(callee.Pkg.Path), name, via)
			}
		}
	}
	return a
}

// funcDisplayName renders a node's function as Name or Type.Method.
func funcDisplayName(n *Node) string {
	if n.Decl.Recv != nil && len(n.Decl.Recv.List) == 1 {
		return recvTypeName(n.Decl.Recv.List[0].Type) + "." + n.Fn.Name()
	}
	return n.Fn.Name()
}

// funcOwner renders an interface method as Interface.Method for dispatch
// attribution.
func funcOwner(m *types.Func) string {
	recv := m.Type().(*types.Signature).Recv().Type()
	if named, ok := recv.(*types.Named); ok {
		return named.Obj().Name() + "." + m.Name()
	}
	return m.Name()
}

// recvTypeName extracts the bare receiver type name from a receiver field.
func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	}
	return ""
}

// shortPkgPath trims the module prefix down to the last two path elements
// for readable diagnostics (internal/metrics rather than the full path).
func shortPkgPath(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}
