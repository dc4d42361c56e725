package lint

import (
	"go/ast"
	"go/types"
)

// pooledField is one component field of an //lint:pooled struct, with the
// declaration site diagnostics anchor to.
type pooledField struct {
	owner *types.TypeName
	field *types.Var
	decl  *ast.Field
	armed bool
}

// ScratchClean returns the scratchclean analyzer. It generalizes resetclean
// to the pooled-components pattern: a struct marked //lint:pooled is a
// scratch space whose fields hold reusable components that are re-armed at
// their point of use rather than by a single Reset method. For every field
// of every pooled struct, the analyzer searches the whole module for a
// re-arm site:
//
//   - a whole-value overwrite — s.f = v, or *p = v through a local bound to
//     &s.f;
//   - a method call on the field — s.f.M(...), or p.M(...) through such a
//     local;
//   - the field's address passed to a call — use(&s.f) — which hands it to
//     an armer.
//
// A field with no re-arm site anywhere is reported at its declaration: a
// component that is pooled but never re-armed carries state from the
// previous run into the next one. Fields annotated //lint:keep (with a
// reason) deliberately survive reuse and are exempt.
func ScratchClean() *Analyzer {
	a := &Analyzer{
		Name: "scratchclean",
	}
	a.RunModule = func(pass *ModulePass) { runScratchClean(pass) }
	return a
}

func runScratchClean(pass *ModulePass) {
	fields := collectPooledFields(pass.Module)
	if len(fields) == 0 {
		return
	}
	byVar := map[*types.Var]*pooledField{}
	for _, pf := range fields {
		byVar[pf.field] = pf
	}
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				markArmedFields(pkg.Info, fd.Body, byVar)
			}
		}
	}
	for _, pf := range fields {
		if pf.armed {
			continue
		}
		pass.Reportf(pf.decl.Pos(),
			"field %s of //lint:pooled struct %s is never re-armed (no overwrite, method call, or address escape on any reuse path)",
			pf.field.Name(), pf.owner.Name())
	}
}

// collectPooledFields finds every struct type annotated //lint:pooled and
// returns its fields, minus //lint:keep carve-outs, in declaration order.
func collectPooledFields(m *Module) []*pooledField {
	var out []*pooledField
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if !hasDirective(gd.Doc, verbPooled) && !hasDirective(ts.Doc, verbPooled) && !hasDirective(ts.Comment, verbPooled) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if _, keep := keepReason(field); keep {
							continue
						}
						for _, name := range field.Names {
							fv, ok := pkg.Info.Defs[name].(*types.Var)
							if !ok {
								continue
							}
							out = append(out, &pooledField{owner: tn, field: fv, decl: field})
						}
					}
				}
			}
		}
	}
	return out
}

// markArmedFields scans one function body for re-arm sites of pooled fields
// and marks the fields it finds.
func markArmedFields(info *types.Info, body *ast.BlockStmt, byVar map[*types.Var]*pooledField) {
	// fieldOf resolves a selector expression to a pooled field, if any.
	fieldOf := func(e ast.Expr) *pooledField {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				return byVar[v]
			}
		}
		return nil
	}
	// addrOf resolves &s.f to the pooled field it points at.
	addrOf := func(e ast.Expr) *pooledField {
		un, ok := ast.Unparen(e).(*ast.UnaryExpr)
		if !ok || un.Op.String() != "&" {
			return nil
		}
		return fieldOf(un.X)
	}
	// First pass: locals bound to a pooled field's address, in either a
	// short declaration or a plain assignment (p := &s.f / p = &s.f).
	alias := map[types.Object]*pooledField{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			pf := addrOf(rhs)
			if pf == nil {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := info.ObjectOf(id); obj != nil {
				alias[obj] = pf
			}
		}
		return true
	})
	// aliasedOf resolves an identifier (or *ident) back to the pooled field
	// its local points at.
	aliasedOf := func(e ast.Expr) *pooledField {
		e = ast.Unparen(e)
		if st, ok := e.(*ast.StarExpr); ok {
			e = ast.Unparen(st.X)
		}
		if id, ok := e.(*ast.Ident); ok {
			return alias[info.ObjectOf(id)]
		}
		return nil
	}
	// Second pass: overwrites, method calls, and address escapes.
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if pf := fieldOf(lhs); pf != nil {
					pf.armed = true
				}
				if pf := aliasedOf(lhs); pf != nil {
					pf.armed = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if pf := fieldOf(sel.X); pf != nil {
					pf.armed = true
				}
				if pf := aliasedOf(sel.X); pf != nil {
					pf.armed = true
				}
			}
			for _, arg := range x.Args {
				if pf := addrOf(arg); pf != nil {
					pf.armed = true
				}
			}
		}
		return true
	})
}
