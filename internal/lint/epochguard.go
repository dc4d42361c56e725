package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// epochTrio is one detected instance of the epoch-guarded-table idiom: an
// owner struct holding a current-epoch counter and a dense table of cells,
// each cell stamped with the epoch it was written under. A cell is live
// only while its stamp matches the owner's counter, which makes clearing
// the whole table a single increment.
type epochTrio struct {
	owner      *types.Named
	ownerEpoch *types.Var // the owner's counter field
	table      *types.Var // the owner's []cell field
	cell       *types.Named
	cellEpoch  *types.Var // the cell's stamp field
	cellFields map[*types.Var]bool
}

// EpochGuard returns the epochguard analyzer. It detects every
// epoch-guarded table in the module structurally (an unsigned "epoch"
// counter on the owner, a slice field of cells that carry their own
// "epoch" stamp) and enforces the idiom's three laws:
//
//  1. guarded read: a function reading any non-stamp cell field must
//     compare the cell's stamp against the owner's counter in the same
//     body — otherwise a stale cell (stamped under a previous epoch) is
//     reachable after a clear;
//  2. bump on reset: every Reset/Clear pointer-receiver method of the
//     owner must advance or reassign the owner's counter;
//  3. no table rewrites: clearing by iterating the table (a range loop
//     assigning cells) or wholesale (clear(table)) defeats the idiom's
//     O(1) invalidation — the one legitimate full rewrite, the epoch
//     wraparound, carries an //lint:ignore with its reason. Cells must be
//     stamped from the owner's counter (or the zero value), never from a
//     constant or unrelated expression.
//
// This is the static form of "no stale region is reachable after a
// partition flush": rule 1 makes stale cells unreadable, rules 2–3 make
// every clear path an epoch bump.
func EpochGuard() *Analyzer {
	a := &Analyzer{
		Name: "epochguard",
	}
	a.RunModule = func(pass *ModulePass) { runEpochGuard(pass) }
	return a
}

func runEpochGuard(pass *ModulePass) {
	trios := detectEpochTrios(pass.Module)
	if len(trios) == 0 {
		return
	}
	byCellField := map[*types.Var]*epochTrio{}
	byTable := map[*types.Var]*epochTrio{}
	for _, tr := range trios {
		for f := range tr.cellFields {
			byCellField[f] = tr
		}
		byTable[tr.table] = tr
	}
	for _, n := range pass.Graph().NodeList() {
		checkEpochFunc(pass, n, byCellField, byTable)
	}
}

// detectEpochTrios finds every (owner, table, cell) instance of the idiom
// in the module.
func detectEpochTrios(m *Module) []*epochTrio {
	// Cell candidates: structs with an unsigned-integer epoch field.
	epochField := func(st *types.Struct) *types.Var {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !strings.EqualFold(f.Name(), "epoch") {
				continue
			}
			if b, ok := f.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsUnsigned != 0 {
				return f
			}
		}
		return nil
	}
	var trios []*epochTrio
	for _, pkg := range m.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			owner, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			ost, ok := owner.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			ownerEpoch := epochField(ost)
			if ownerEpoch == nil {
				continue
			}
			for i := 0; i < ost.NumFields(); i++ {
				f := ost.Field(i)
				sl, ok := f.Type().Underlying().(*types.Slice)
				if !ok {
					continue
				}
				cell, ok := sl.Elem().(*types.Named)
				if !ok {
					continue
				}
				cst, ok := cell.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				cellEpoch := epochField(cst)
				if cellEpoch == nil || cell == owner {
					continue
				}
				tr := &epochTrio{
					owner:      owner,
					ownerEpoch: ownerEpoch,
					table:      f,
					cell:       cell,
					cellEpoch:  cellEpoch,
					cellFields: map[*types.Var]bool{},
				}
				for j := 0; j < cst.NumFields(); j++ {
					tr.cellFields[cst.Field(j)] = true
				}
				trios = append(trios, tr)
			}
		}
	}
	return trios
}

// checkEpochFunc applies the three epoch laws to one function body.
func checkEpochFunc(pass *ModulePass, n *Node, byCellField map[*types.Var]*epochTrio, byTable map[*types.Var]*epochTrio) {
	info := n.Pkg.Info
	body := n.Decl.Body

	// Which trios does this body compare stamps for? A comparison is a
	// ==/!= between the cell's stamp field and the owner's counter field.
	compared := map[*epochTrio]bool{}
	// Selector expressions that sit under an assignment's LHS (writes).
	writes := map[ast.Expr]bool{}
	markWrite := func(e ast.Expr) {
		for {
			e = ast.Unparen(e)
			writes[e] = true
			switch x := e.(type) {
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	fieldOf := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				return v
			}
		}
		return nil
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(x.X)
		case *ast.BinaryExpr:
			if x.Op != token.EQL && x.Op != token.NEQ {
				return true
			}
			fx, fy := fieldOf(x.X), fieldOf(x.Y)
			for _, pair := range [2][2]*types.Var{{fx, fy}, {fy, fx}} {
				if pair[0] == nil || pair[1] == nil {
					continue
				}
				if tr, ok := byCellField[pair[0]]; ok && pair[0] == tr.cellEpoch && pair[1] == tr.ownerEpoch {
					compared[tr] = true
				}
			}
		}
		return true
	})

	resetMethod := isEpochResetMethod(info, n, byTable)

	// Second walk: report violations.
	ast.Inspect(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.SelectorExpr:
			f := fieldOf(x)
			if f == nil || writes[ast.Expr(x)] {
				return true
			}
			tr, ok := byCellField[f]
			if !ok || f == tr.cellEpoch {
				return true
			}
			if !compared[tr] {
				pass.Reportf(x.Pos(),
					"read of epoch-guarded field %s.%s without comparing %s.%s against %s.%s in this function",
					tr.cell.Obj().Name(), f.Name(),
					tr.cell.Obj().Name(), tr.cellEpoch.Name(),
					tr.owner.Obj().Name(), tr.ownerEpoch.Name())
			}
		case *ast.CallExpr:
			if builtinName(info, x) == "clear" && len(x.Args) == 1 {
				if f := fieldOf(x.Args[0]); f != nil {
					if tr, ok := byTable[f]; ok {
						pass.Reportf(x.Pos(),
							"full clear of epoch-guarded table %s.%s; invalidate by bumping %s.%s instead",
							tr.owner.Obj().Name(), f.Name(),
							tr.owner.Obj().Name(), tr.ownerEpoch.Name())
					}
				}
			}
		case *ast.RangeStmt:
			if f := fieldOf(x.X); f != nil {
				if tr, ok := byTable[f]; ok && rangeWritesCells(info, x, f) {
					pass.Reportf(x.Pos(),
						"iterating epoch-guarded table %s.%s to rewrite cells; invalidate by bumping %s.%s instead",
						tr.owner.Obj().Name(), f.Name(),
						tr.owner.Obj().Name(), tr.ownerEpoch.Name())
				}
			}
		case *ast.CompositeLit:
			checkCellStamp(pass, info, x, byCellField)
		}
		return true
	})

	if resetMethod != nil && !bumpsEpoch(info, body, resetMethod.ownerEpoch) {
		pass.Reportf(n.Decl.Pos(),
			"(%s) %s must bump %s.%s: the epoch-guarded table %s.%s is cleared by epoch, not by rewriting",
			n.Fn.Type().(*types.Signature).Recv().Type(), n.Fn.Name(),
			resetMethod.owner.Obj().Name(), resetMethod.ownerEpoch.Name(),
			resetMethod.owner.Obj().Name(), resetMethod.table.Name())
	}
}

// isEpochResetMethod reports the trio whose owner this node is a
// Reset/Clear pointer-receiver method of, or nil.
func isEpochResetMethod(info *types.Info, n *Node, byTable map[*types.Var]*epochTrio) *epochTrio {
	name := n.Fn.Name()
	if name != "Reset" && name != "Clear" {
		return nil
	}
	recv := n.Fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	for _, tr := range byTable {
		if tr.owner == named {
			return tr
		}
	}
	return nil
}

// bumpsEpoch reports whether the body increments or assigns the owner's
// epoch counter field.
func bumpsEpoch(info *types.Info, body *ast.BlockStmt, ownerEpoch *types.Var) bool {
	found := false
	fieldIs := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		s, ok := info.Selections[sel]
		return ok && s.Kind() == types.FieldVal && s.Obj() == ownerEpoch
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.IncDecStmt:
			if fieldIs(x.X) {
				found = true
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if fieldIs(lhs) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// rangeWritesCells reports whether a range over the table assigns to the
// table's cells inside the loop body.
func rangeWritesCells(info *types.Info, rng *ast.RangeStmt, table *types.Var) bool {
	found := false
	ast.Inspect(rng.Body, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			base := baseOfChain(lhs)
			if sel, ok := ast.Unparen(base).(*ast.SelectorExpr); ok {
				if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal && s.Obj() == table {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// checkCellStamp verifies a cell composite literal stamps its epoch from
// the owner's counter or leaves it zero.
func checkCellStamp(pass *ModulePass, info *types.Info, lit *ast.CompositeLit, byCellField map[*types.Var]*epochTrio) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	var tr *epochTrio
	for f, cand := range byCellField {
		_ = f
		if cand.cell == named {
			tr = cand
			break
		}
	}
	if tr == nil {
		return
	}
	ownerCounter := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		s, ok := info.Selections[sel]
		return ok && s.Kind() == types.FieldVal && s.Obj() == tr.ownerEpoch
	}
	report := func(e ast.Expr) {
		pass.Reportf(e.Pos(),
			"cell %s stamped with an epoch not read from %s.%s: stale cells could read as live under a future epoch",
			tr.cell.Obj().Name(), tr.owner.Obj().Name(), tr.ownerEpoch.Name())
	}
	st := tr.cell.Underlying().(*types.Struct)
	if len(lit.Elts) > 0 {
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !strings.EqualFold(key.Name, tr.cellEpoch.Name()) {
					continue
				}
				if !ownerCounter(kv.Value) && !isZeroExpr(info, kv.Value) {
					report(kv.Value)
				}
			}
		} else if len(lit.Elts) == st.NumFields() {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == tr.cellEpoch {
					if !ownerCounter(lit.Elts[i]) && !isZeroExpr(info, lit.Elts[i]) {
						report(lit.Elts[i])
					}
				}
			}
		}
	}
}

// isZeroExpr reports whether the expression is the constant zero.
func isZeroExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}
