package lint

import (
	"go/ast"
	"go/types"
)

// ResetClean returns the resetclean analyzer: for every pointer-receiver
// method named Reset on a struct type, each field of the struct must be
// touched by the method — assigned (directly, through an index/slice/star
// chain, or via a whole-struct *r = T{...} store), passed to a call (clear,
// copy, append, a helper), or be the receiver of a method call — or carry a
// //lint:keep <reason> annotation explaining why it survives pooling.
//
// This is the static side of the stale-pooled-state defense; the dynamic
// side is internal/difftest's Reset-then-reuse property test.
func ResetClean() *Analyzer {
	a := &Analyzer{
		Name: "resetclean",
	}
	a.Run = func(pass *Pass) { runResetClean(pass) }
	return a
}

func runResetClean(pass *Pass) {
	info := pass.Info
	// Struct type declarations by their *types.Named object, for field
	// position and //lint:keep lookup.
	structDecls := map[types.Object]*ast.StructType{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					if obj := info.Defs[ts.Name]; obj != nil {
						structDecls[obj] = st
					}
				}
			}
		}
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Reset" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			checkReset(pass, fd, structDecls)
		}
	}
}

func checkReset(pass *Pass, fd *ast.FuncDecl, structDecls map[types.Object]*ast.StructType) {
	info := pass.Info
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return // unnamed receiver never touches fields; nothing provable
	}
	recvIdent := fd.Recv.List[0].Names[0]
	recvObj := info.Defs[recvIdent]
	if recvObj == nil {
		return
	}
	ptr, ok := recvObj.Type().(*types.Pointer)
	if !ok {
		return // value receiver cannot reset the pooled instance
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return
	}
	st, ok := structDecls[named.Obj()]
	if !ok {
		return
	}

	handled := map[string]bool{}
	wholeStore := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if isRecvDeref(info, lhs, recvObj) {
					wholeStore = true // *r = T{...} resets every field
					continue
				}
				if name := recvField(info, lhs, recvObj); name != "" {
					handled[name] = true
				}
			}
		case *ast.IncDecStmt:
			if name := recvField(info, x.X, recvObj); name != "" {
				handled[name] = true
			}
		case *ast.CallExpr:
			// A method call on a field (r.buf.Resize(...)) delegates that
			// field's reset; a field passed as an argument (clear(r.m),
			// r.pool.put(r.x)) is in the callee's hands too.
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if name := recvField(info, sel.X, recvObj); name != "" {
					handled[name] = true
				}
			}
			for _, arg := range x.Args {
				if name := recvField(info, arg, recvObj); name != "" {
					handled[name] = true
				}
			}
		}
		return true
	})
	if wholeStore {
		return
	}

	for _, field := range st.Fields.List {
		if _, kept := keepReason(field); kept {
			continue
		}
		if len(field.Names) == 0 {
			// Embedded field: handled when the embedded name is touched.
			name := embeddedFieldName(field.Type)
			if name != "" && !handled[name] {
				pass.Reportf(field.Pos(), "embedded field %s of %s is not reset by (*%s).Reset and not annotated //lint:keep", name, named.Obj().Name(), named.Obj().Name())
			}
			continue
		}
		for _, nameIdent := range field.Names {
			if nameIdent.Name == "_" || handled[nameIdent.Name] {
				continue
			}
			pass.Reportf(nameIdent.Pos(), "field %s of %s is not reset by (*%s).Reset and not annotated //lint:keep", nameIdent.Name, named.Obj().Name(), named.Obj().Name())
		}
	}
}

// isRecvDeref matches *r (with any parenthesization) for the receiver r.
func isRecvDeref(info *types.Info, e ast.Expr, recv types.Object) bool {
	star, ok := ast.Unparen(e).(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(star.X).(*ast.Ident)
	return ok && info.Uses[id] == recv
}

// recvField resolves an expression to the name of the receiver field it
// roots in: r.f, r.f[i], r.f[i:j], &r.f, r.f.g (a store through a sub-field
// still touches f) all yield "f".
func recvField(info *types.Info, e ast.Expr, recv types.Object) string {
	for {
		switch x := baseOfChain(e).(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && info.Uses[id] == recv {
				return x.Sel.Name
			}
			e = x.X
		default:
			return ""
		}
	}
}

// embeddedFieldName extracts the implicit field name of an embedded type.
func embeddedFieldName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return embeddedFieldName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}
