// Package lintutil holds the pieces shared by graphspar's analyzers:
// the deterministic-pipeline package set, the //graphspar:* annotation
// grammar, and small AST/type helpers.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"graphspar/internal/analysis"
)

// deterministicPkgs is the set of pipeline packages whose output must
// be bit-identical run to run. Package membership is decided by the
// final path element so that both the real import paths
// ("graphspar/internal/core") and analysistest fixture paths ("core")
// match. CONTRIBUTING.md requires new pipeline packages to be added
// here.
var deterministicPkgs = map[string]bool{
	"core":       true,
	"engine":     true,
	"dynamic":    true,
	"multilevel": true,
	"cholesky":   true,
	"lsst":       true,
	"partition":  true,
	"graph":      true,
	"multigrid":  true,
	"tree":       true,
	"eig":        true,
	"vecmath":    true,
	"sparse":     true,
	"pcg":        true,
	"gen":        true,
}

// IsDeterministicPkg reports whether the package at path belongs to the
// deterministic pipeline set. cmd/ wrappers are excluded even when
// their base name collides with a pipeline package (cmd/partition).
func IsDeterministicPkg(path string) bool {
	if strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/") {
		return false
	}
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return deterministicPkgs[base]
}

// IsTestFile reports whether pos is inside a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// An Annotations index maps file lines to //graphspar:* directive
// comments. The grammar is
//
//	//graphspar:<token>-ok <reason>
//
// attached either at the end of the offending line or on its own line
// immediately above. The reason is mandatory; Check reports bare
// annotations through the pass.
type Annotations struct {
	fset *token.FileSet
	// byLine maps filename:line to the directive comment on that line.
	byLine map[annKey]*ast.Comment
}

type annKey struct {
	file string
	line int
}

const annPrefix = "//graphspar:"

// NewAnnotations indexes every //graphspar: directive in the pass's
// files.
func NewAnnotations(pass *analysis.Pass) *Annotations {
	a := &Annotations{fset: pass.Fset, byLine: map[annKey]*ast.Comment{}}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, annPrefix) {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				a.byLine[annKey{p.Filename, p.Line}] = c
			}
		}
	}
	return a
}

// Allows reports whether node carries a "<token>-ok" annotation with a
// non-empty reason, either at the end of its first line or on the line
// directly above. A bare annotation (no reason) suppresses the original
// diagnostic but is itself reported as one, anchored at the annotated
// statement.
func (a *Annotations) Allows(pass *analysis.Pass, node ast.Node, tok string) bool {
	p := a.fset.Position(node.Pos())
	for _, line := range []int{p.Line, p.Line - 1} {
		c, ok := a.byLine[annKey{p.Filename, line}]
		if !ok {
			continue
		}
		rest, ok := strings.CutPrefix(c.Text, annPrefix+tok+"-ok")
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		if strings.TrimSpace(rest) == "" {
			pass.Reportf(node.Pos(), "bare //graphspar:%s-ok annotation: a reason is required", tok)
			return true // the bare annotation replaces the original finding
		}
		return true
	}
	return false
}

// PkgPath returns the package path an object belongs to, or "" for
// universe-scope objects.
func PkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// IsPkg reports whether path is exactly want or ends in "/"+want, so
// "math/rand", fixture stubs ("obs") and real paths
// ("graphspar/internal/obs") can all be matched by suffix.
func IsPkg(path, want string) bool {
	return path == want || strings.HasSuffix(path, "/"+want)
}

// IsMapType reports whether t's core type is a map.
func IsMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// IsErrorType reports whether t is the built-in error interface.
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// SentinelError reports whether e refers to a package-level error
// variable following the ErrXxx naming convention — the sentinel shape
// that gets wrapped with %w and must be compared with errors.Is.
func SentinelError(info *types.Info, e ast.Expr) bool {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok || obj.Pkg() == nil {
		return false
	}
	// Package-level variable: its parent scope is the package scope.
	if obj.Parent() != obj.Pkg().Scope() {
		return false
	}
	return strings.HasPrefix(obj.Name(), "Err") && IsErrorType(obj.Type())
}

// FuncFor resolves the callee of a call expression to a *types.Func,
// or nil when the callee is not a statically known function or method.
func FuncFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// EnclosingFunc returns the innermost function declaration or literal
// in stack (outermost-to-innermost node path) strictly containing the
// last element, or nil.
func EnclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// WalkStack traverses f, invoking fn with the node path from the file
// down to each visited node (inclusive). Returning false from fn prunes
// the subtree.
func WalkStack(f *ast.File, fn func(stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !fn(stack) {
			stack = stack[:len(stack)-1] // Inspect will not pop for us after pruning
			return false
		}
		return true
	})
}
