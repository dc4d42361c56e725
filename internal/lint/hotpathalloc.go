package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc returns the hotpathalloc analyzer: inside functions on the
// module-wide hot set — //lint:hotpath-annotated roots plus unexported
// same-package callees that hot functions dominate (every visible caller is
// hot and the function is never used as a value) — it flags heap-allocating
// constructs: map/slice literals, address-taken composite literals,
// un-hinted make and non-reusing append, closures that capture variables,
// implicit conversions of non-pointer values to interfaces, fmt calls, and
// string concatenation.
//
// Cold sub-paths are exempt: code guarded by a len/cap/nil condition
// (growth and lazy-init), code inside or after a len/cap-guarded early
// return (pool miss), code on blocks that end by returning a non-nil error
// or panicking, switch cases whose switch or case expressions mention
// len/cap/nil, and the copy-based reslice-grow idiom (g := make(...);
// copy(g, old)).
//
// The hot set and per-body scan are shared with crosshot, which extends the
// same discipline across package boundaries.
func HotPathAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotpathalloc",
	}
	a.RunModule = func(pass *ModulePass) {
		for _, n := range pass.Graph().NodeList() {
			if n.Hot {
				scanAllocs(n.Pkg, n.Fn, n.Decl, pass.Reportf)
			}
		}
	}
	return a
}

// bodyHasAlloc probes whether a function body contains any non-exempt
// allocation candidate — the body half of the call graph's allocation-free
// fixpoint (call edges are judged separately).
func bodyHasAlloc(pkg *Package, fn *types.Func, fd *ast.FuncDecl) bool {
	found := false
	scanAllocs(pkg, fn, fd, func(token.Pos, string, ...any) { found = true })
	return found
}

// scanAllocs walks one function body reporting each allocation candidate
// that no cold-path exemption covers.
func scanAllocs(pkg *Package, fn *types.Func, fd *ast.FuncDecl, reportf func(pos token.Pos, format string, args ...any)) {
	info := pkg.Info
	declSig := fn.Type().(*types.Signature)
	selfAppends := map[*ast.CallExpr]bool{}

	report := func(n ast.Node, stack []ast.Node, format string, args ...any) {
		if !coldExempt(info, n, stack) {
			reportf(n.Pos(), format, args...)
		}
	}

	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Map:
				report(x, stack, "map literal allocates on a hot path")
			case *types.Slice:
				report(x, stack, "slice literal allocates on a hot path")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					switch info.TypeOf(lit).Underlying().(type) {
					case *types.Map, *types.Slice:
						// Flagged at the literal itself.
					default:
						report(x, stack, "address-taken composite literal escapes to the heap on a hot path")
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(info, x, stack, selfAppends, report)
		case *ast.AssignStmt:
			checkHotAssign(info, x, stack, selfAppends, report)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info.TypeOf(x)) {
				report(x, stack, "string concatenation allocates on a hot path")
			}
		case *ast.FuncLit:
			if name := capturedVar(info, x); name != "" {
				report(x, stack, "closure captures %q and may allocate on a hot path", name)
			}
		case *ast.ReturnStmt:
			sig := declSig
			for i := len(stack) - 1; i >= 0; i-- {
				if lit, ok := stack[i].(*ast.FuncLit); ok {
					if s, ok := info.TypeOf(lit).(*types.Signature); ok {
						sig = s
					}
					break
				}
			}
			if sig.Results().Len() == len(x.Results) {
				for i, res := range x.Results {
					checkIfaceConv(info, res, sig.Results().At(i).Type(), stack, report)
				}
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				if t := info.TypeOf(x.Type); t != nil {
					for _, v := range x.Values {
						checkIfaceConv(info, v, t, stack, report)
					}
				}
			}
		}
		return true
	})
}

// checkHotCall handles the call-shaped candidates: make/new/append builtins,
// fmt calls, and interface-boxing argument conversions.
func checkHotCall(info *types.Info, call *ast.CallExpr, stack []ast.Node, selfAppends map[*ast.CallExpr]bool, report func(ast.Node, []ast.Node, string, ...any)) {
	if isTypeConversion(info, call) {
		return
	}
	switch builtinName(info, call) {
	case "make":
		if !copyGrowExempt(info, call, stack) {
			report(call, stack, "make on a hot path without a len/cap growth guard")
		}
		return
	case "new":
		report(call, stack, "new allocates on a hot path")
		return
	case "append":
		if !selfAppends[call] {
			report(call, stack, "append result is not reassigned to its destination on a hot path")
		}
		return
	case "":
	default:
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pkg, ok := info.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "fmt" {
				report(call, stack, "fmt.%s allocates on a hot path", sel.Sel.Name)
				return
			}
		}
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		checkIfaceConvAt(info, arg, pt, stack, report)
	}
}

// checkHotAssign records which appends reuse their destination and flags
// string concatenation via += and interface-boxing plain assignments.
func checkHotAssign(info *types.Info, as *ast.AssignStmt, stack []ast.Node, selfAppends map[*ast.CallExpr]bool, report func(ast.Node, []ast.Node, string, ...any)) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && isStringType(info.TypeOf(as.Lhs[0])) {
		report(as, stack, "string concatenation allocates on a hot path")
		return
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && builtinName(info, call) == "append" && len(call.Args) > 0 {
				dst := types.ExprString(as.Lhs[i])
				src := call.Args[0]
				if se, ok := ast.Unparen(src).(*ast.SliceExpr); ok {
					src = se.X
				}
				if types.ExprString(src) == dst {
					selfAppends[call] = true
				}
			}
			if as.Tok == token.ASSIGN {
				checkIfaceConv(info, rhs, info.TypeOf(as.Lhs[i]), stack, report)
			}
		}
	}
}

// checkIfaceConv flags implicit conversions of non-pointer concrete values
// to interface types — each one boxes its operand on the heap.
func checkIfaceConv(info *types.Info, expr ast.Expr, target types.Type, stack []ast.Node, report func(ast.Node, []ast.Node, string, ...any)) {
	checkIfaceConvAt(info, expr, target, stack, report)
}

func checkIfaceConvAt(info *types.Info, expr ast.Expr, target types.Type, stack []ast.Node, report func(ast.Node, []ast.Node, string, ...any)) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Value != nil { // constants are boxed from static data
		return
	}
	t := tv.Type
	if t == nil || types.IsInterface(t) {
		return
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Basic:
		if b, ok := t.Underlying().(*types.Basic); !ok || b.Kind() == types.UntypedNil {
			return
		}
	}
	report(expr, stack, "conversion of non-pointer %s to interface %s boxes on a hot path", t, target)
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// capturedVar returns the name of some variable a closure captures from an
// enclosing function scope, or "" when the closure is capture-free.
func capturedVar(info *types.Info, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the closure (params, locals)
		}
		if pkg := v.Pkg(); pkg != nil && v.Parent() == pkg.Scope() {
			return true // package-level variable, not a capture
		}
		name = v.Name()
		return false
	})
	return name
}

// coldExempt reports whether the candidate node sits on a cold sub-path of a
// hot function: under a len/cap/nil-guarded branch or switch case, after a
// len/cap-guarded early return, inside an error return, or in a block that
// unconditionally ends by returning an error or panicking.
func coldExempt(info *types.Info, n ast.Node, stack []ast.Node) bool {
	childAt := func(i int) ast.Node {
		if i+1 < len(stack) {
			return stack[i+1]
		}
		return n
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.ReturnStmt:
			if returnsError(info, a) {
				return true
			}
		case *ast.IfStmt:
			child := childAt(i)
			if (child == ast.Node(a.Body) || child == a.Else) && ifGuardsLenCapNil(info, a) {
				return true
			}
		case *ast.SwitchStmt:
			// A switch whose init or tag involves len/cap/nil guards all of
			// its cases (the multi-way growth dispatch: switch { case cap(x)
			// < n: ... }); an individual case guarded the same way covers
			// just that clause.
			if a.Init != nil && mentionsLenCapNil(info, a.Init) {
				return true
			}
			if a.Tag != nil && mentionsLenCapNil(info, a.Tag) {
				return true
			}
		case *ast.CaseClause:
			for _, e := range a.List {
				if mentionsLenCapNil(info, e) {
					return true
				}
			}
		}
		if stmts := blockStmts(stack[i]); len(stmts) > 0 {
			last := stmts[len(stmts)-1]
			if isPanicCall(info, last) {
				return true
			}
			if ret, ok := last.(*ast.ReturnStmt); ok && returnsError(info, ret) {
				return true
			}
			child := childAt(i)
			for _, s := range stmts {
				if ast.Node(s) == child {
					break
				}
				if guardedEarlyReturn(info, s) {
					return true
				}
			}
		}
	}
	return false
}

// copyGrowExempt recognizes the copy-based reslice-grow idiom even when no
// enclosing len/cap guard is visible: the make's result is bound to a
// variable, and a later statement of the same block copies the old contents
// into it (grown := make([]T, n); copy(grown, old)). The copy proves the
// make is a capacity-preserving reallocation — a growth event, not a
// steady-state allocation.
func copyGrowExempt(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || ast.Unparen(as.Rhs[0]) != ast.Node(call) {
		return false
	}
	dstIdent, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	var dst types.Object
	if as.Tok == token.DEFINE {
		dst = info.Defs[dstIdent]
	} else {
		dst = info.Uses[dstIdent]
	}
	if dst == nil {
		return false
	}
	// Find the enclosing statement list and scan the statements after the
	// assignment for copy(dst, ...).
	for i := len(stack) - 2; i >= 0; i-- {
		stmts := blockStmts(stack[i])
		if stmts == nil {
			continue
		}
		seen := false
		for _, s := range stmts {
			if ast.Node(s) == ast.Node(as) {
				seen = true
				continue
			}
			if !seen {
				continue
			}
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			cp, ok := es.X.(*ast.CallExpr)
			if !ok || builtinName(info, cp) != "copy" || len(cp.Args) != 2 {
				continue
			}
			if id, ok := ast.Unparen(cp.Args[0]).(*ast.Ident); ok && info.Uses[id] == dst {
				return true
			}
		}
		return false
	}
	return false
}

// guardedEarlyReturn matches the pool-hit shape: an if statement whose
// condition involves len/cap/nil and whose body ends by returning — code
// after it only runs on the miss path.
func guardedEarlyReturn(info *types.Info, s ast.Stmt) bool {
	ifs, ok := s.(*ast.IfStmt)
	if !ok || !ifGuardsLenCapNil(info, ifs) || len(ifs.Body.List) == 0 {
		return false
	}
	last := ifs.Body.List[len(ifs.Body.List)-1]
	if _, ok := last.(*ast.ReturnStmt); ok {
		return true
	}
	return isPanicCall(info, last)
}
