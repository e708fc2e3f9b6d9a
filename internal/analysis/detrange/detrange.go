// Package detrange implements the detrange analyzer: it flags `range`
// statements over maps inside graphspar's deterministic pipeline
// packages, where Go's randomized map iteration order silently breaks
// the run-to-run bit-identical sparsifier guarantee.
//
// A map range is accepted without annotation when its body is provably
// order-insensitive:
//
//   - collect-and-sort: the body only appends keys/values to slices
//     and at least one of those slices is passed to a sort before the
//     enclosing function returns;
//   - map-drain: the body only delete()s the ranged map's own keys, or
//     delete()s exactly the range key from another map;
//   - keyed writes: the body only assigns m2[k] = ... where k is the
//     range key (each iteration touches a distinct key);
//   - commutative integer accumulation: n += v, n |= v, n &= v,
//     n ^= v, n -= v, n++ / n-- on integer variables.
//
// Conditionals around those forms are fine. Anything else needs a
// `//graphspar:nondeterministic-ok <reason>` annotation on the range
// line or the line above; a bare annotation without a reason is itself
// a diagnostic.
package detrange

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"graphspar/internal/analysis"
	"graphspar/internal/analysis/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc:  "flag map iteration in deterministic pipeline packages unless provably order-insensitive or annotated",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.IsDeterministicPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	ann := lintutil.NewAnnotations(pass)
	for _, f := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		lintutil.WalkStack(f, func(stack []ast.Node) bool {
			rs, ok := stack[len(stack)-1].(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !lintutil.IsMapType(pass.TypesInfo.Types[rs.X].Type) {
				return true
			}
			if orderInsensitive(pass, rs, stack) {
				return true
			}
			if ann.Allows(pass, rs, "nondeterministic") {
				return true
			}
			pass.Report(analysis.Diagnostic{
				Pos: rs.Pos(),
				End: rs.Body.Lbrace,
				Message: "range over map iterates in random order in a deterministic pipeline package; " +
					"collect and sort the keys first, or annotate //graphspar:nondeterministic-ok <reason>",
			})
			return true
		})
	}
	return nil, nil
}

// orderInsensitive reports whether the loop body consists solely of
// statement forms whose combined effect does not depend on iteration
// order.
func orderInsensitive(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	info := pass.TypesInfo
	keyObj := rangeVarObj(info, rs.Key)
	mapObj := exprObj(info, rs.X)

	var collected []types.Object // slices filled by append-only statements
	var benign func(s ast.Stmt) bool
	benign = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.BlockStmt:
			for _, sub := range s.List {
				if !benign(sub) {
					return false
				}
			}
			return true
		case *ast.IfStmt:
			if s.Else != nil {
				return false
			}
			if s.Init != nil {
				// `if x := ...; cond` — a define-only init just names
				// locals scoped to this if and cannot carry state across
				// iterations.
				init, ok := s.Init.(*ast.AssignStmt)
				if !ok || init.Tok != token.DEFINE {
					return false
				}
			}
			return benign(s.Body)
		case *ast.BranchStmt:
			return s.Tok == token.CONTINUE
		case *ast.IncDecStmt:
			return isIntVar(info, s.X)
		case *ast.ExprStmt:
			// delete(m, k): draining the ranged map itself, or deleting
			// exactly the range key from any map (distinct key per
			// iteration either way).
			call, ok := s.X.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return false
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || info.Uses[id] != types.Universe.Lookup("delete") {
				return false
			}
			if mapObj != nil && exprObj(info, call.Args[0]) == mapObj {
				return true
			}
			return keyObj != nil && exprObj(info, call.Args[1]) == keyObj
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			switch s.Tok {
			case token.ASSIGN:
				// s = append(s, ...) collection, or m2[k] = v keyed write.
				if tgt := appendTarget(info, s.Lhs[0], s.Rhs[0]); tgt != nil {
					collected = append(collected, tgt)
					return true
				}
				return keyedMapWrite(info, s.Lhs[0], keyObj)
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
				if isIntVar(info, s.Lhs[0]) {
					return true
				}
				return keyedMapWrite(info, s.Lhs[0], keyObj)
			}
			return false
		}
		return false
	}
	if !benign(rs.Body) {
		return false
	}
	if len(collected) == 0 {
		return true // drain / keyed-write / accumulate only: order-free as-is
	}
	// Collection loops are only deterministic if a collected slice is
	// sorted before use; require a sort call after the loop in the
	// enclosing function.
	fn := lintutil.EnclosingFunc(stack)
	if fn == nil {
		return false
	}
	return sortedAfter(info, fn, rs.End(), collected)
}

// isIntVar reports whether e is a variable of integer type, whose
// += / |= / &= / ^= / ++ accumulation is order-insensitive (unlike
// floats, where addition does not associate).
func isIntVar(info *types.Info, e ast.Expr) bool {
	t := info.Types[ast.Unparen(e)].Type
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// appendTarget returns the object of s in `s = append(s, ...)`, else nil.
func appendTarget(info *types.Info, lhs, rhs ast.Expr) types.Object {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if fid, ok := call.Fun.(*ast.Ident); !ok || info.Uses[fid] != types.Universe.Lookup("append") {
		return nil
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := exprObj(info, id)
	if obj == nil || exprObj(info, first) != obj {
		return nil
	}
	return obj
}

// keyedMapWrite reports whether lhs is m2[k] with k exactly the range
// key variable, so each iteration writes a distinct key.
func keyedMapWrite(info *types.Info, lhs ast.Expr, keyObj types.Object) bool {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok || keyObj == nil {
		return false
	}
	if !lintutil.IsMapType(info.Types[ix.X].Type) {
		return false
	}
	return exprObj(info, ix.Index) == keyObj
}

// sortedAfter reports whether any of the collected slices appears as an
// argument (possibly nested) of a sort-shaped call located after pos
// within fn.
func sortedAfter(info *types.Info, fn ast.Node, pos token.Pos, collected []types.Object) bool {
	targets := map[types.Object]bool{}
	for _, o := range collected {
		targets[o] = true
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || !isSortCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && targets[exprObj(info, id)] {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// isSortCall recognizes sort.* / slices.Sort* calls and local helpers
// whose name contains "Sort" or starts with "sort".
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				p := pn.Imported().Path()
				return p == "sort" || p == "slices"
			}
		}
		return strings.Contains(fun.Sel.Name, "Sort")
	case *ast.Ident:
		return strings.Contains(fun.Name, "Sort") || strings.HasPrefix(fun.Name, "sort")
	}
	return false
}

func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

func exprObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}
