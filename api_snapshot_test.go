package graphspar_test

// API-surface snapshot check: the exported surface of the root graphspar
// package is rendered from its AST and compared against the checked-in
// golden file api/graphspar.txt. An unintended breaking change (removed
// function, changed signature, renamed option) fails this test; an
// intended change is recorded by re-running with UPDATE_API=1 and
// reviewing the golden diff. Rendering from the AST (instead of `go doc
// -all`) keeps the snapshot independent of toolchain formatting changes.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

const apiGoldenPath = "api/graphspar.txt"

// renderDecl prints a declaration with go/printer using a throwaway
// fset-consistent node.
func renderDecl(t *testing.T, fset *token.FileSet, node any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := (&printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}).Fprint(&buf, fset, node); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// apiSurface renders every exported top-level declaration of the root
// package, sorted, one blank line apart. An alias to a type of this
// module (type Result = engine.Result) also renders its target — the
// exported fields and exported methods of engine.Result, qualified as
// engine.Result — so a field or method declared behind an alias is
// pinned like one declared here. Aliases to other modules are not
// followed.
func apiSurface(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["graphspar"]
	if !ok {
		t.Fatalf("root package graphspar not found (got %v)", pkgs)
	}

	var entries []string
	add := func(s string) { entries = append(entries, strings.TrimSpace(s)) }

	for _, file := range pkg.Files {
		imports := map[string]string{} // local name → import path
		for _, im := range file.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			local := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = path
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil {
					// Methods count only on exported receivers.
					recv := renderDecl(t, fset, d.Recv.List[0].Type)
					base := strings.TrimPrefix(recv, "*")
					if !ast.IsExported(base) {
						continue
					}
				}
				d.Body = nil
				d.Doc = nil
				add("func " + strings.TrimPrefix(renderDecl(t, fset, d), "func "))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						sp.Doc, sp.Comment = nil, nil
						add("type " + renderDecl(t, fset, sp))
						if sel, ok := sp.Type.(*ast.SelectorExpr); ok && sp.Assign.IsValid() {
							local := sel.X.(*ast.Ident).Name
							if path := imports[local]; strings.HasPrefix(path, "graphspar/") {
								aliasTarget(t, strings.TrimPrefix(path, "graphspar/"), local, sel.Sel.Name, add)
							}
						}
					case *ast.ValueSpec:
						sp.Doc, sp.Comment = nil, nil
						var names []string
						for _, n := range sp.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
						if len(names) == 0 {
							continue
						}
						kw := "var"
						if d.Tok == token.CONST {
							kw = "const"
						}
						add(fmt.Sprintf("%s %s", kw, renderDecl(t, fset, sp)))
					}
				}
			}
		}
	}
	sort.Strings(entries)
	return strings.Join(entries, "\n\n") + "\n"
}

// aliasTarget renders type name of the package in dir, named local.name:
// its declaration with only the exported fields when it is a struct, and
// its exported methods. Doc comments are dropped as in the root surface.
func aliasTarget(t *testing.T, dir, local, name string, add func(string)) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil || !d.Name.IsExported() {
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					id, ok := recv.(*ast.Ident)
					if !ok || id.Name != name {
						continue
					}
					id.Name = local + "." + name
					d.Body, d.Doc = nil, nil
					add(renderDecl(t, fset, d))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						sp, ok := spec.(*ast.TypeSpec)
						if !ok || sp.Name.Name != name {
							continue
						}
						if st, ok := sp.Type.(*ast.StructType); ok {
							st.Fields.List = exportedFields(st.Fields.List)
						}
						sp.Name.Name = local + "." + name
						sp.Doc, sp.Comment = nil, nil
						add("type " + renderDecl(t, fset, sp))
					}
				}
			}
		}
	}
}

// exportedFields keeps the exported names of each field, and every
// embedded field.
func exportedFields(fields []*ast.Field) []*ast.Field {
	var out []*ast.Field
	for _, f := range fields {
		if len(f.Names) == 0 {
			out = append(out, f)
			continue
		}
		var names []*ast.Ident
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, n)
			}
		}
		if len(names) > 0 {
			f.Names, f.Doc, f.Comment = names, nil, nil
			out = append(out, f)
		}
	}
	return out
}

func TestAPISurfaceSnapshot(t *testing.T) {
	got := apiSurface(t)
	if os.Getenv("UPDATE_API") != "" {
		if err := os.MkdirAll("api", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", apiGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(apiGoldenPath)
	if err != nil {
		t.Fatalf("missing API golden (run UPDATE_API=1 go test -run APISurface .): %v", err)
	}
	if got != string(want) {
		t.Errorf("public API surface drifted from %s.\n"+
			"If this change is intentional, regenerate with:\n\tUPDATE_API=1 go test -run APISurface .\n"+
			"and review the golden diff in the PR.\n--- got ---\n%s", apiGoldenPath, diffHint(string(want), got))
	}
}

// diffHint returns a compact line-level diff (enough to locate the drift
// without pulling in a diff library).
func diffHint(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var out []string
	seen := make(map[string]bool, len(w))
	for _, l := range w {
		seen[l] = true
	}
	gotSet := make(map[string]bool, len(g))
	for _, l := range g {
		gotSet[l] = true
		if !seen[l] && strings.TrimSpace(l) != "" {
			out = append(out, "+ "+l)
		}
	}
	for _, l := range w {
		if !gotSet[l] && strings.TrimSpace(l) != "" {
			out = append(out, "- "+l)
		}
	}
	if len(out) == 0 {
		return "(ordering/whitespace drift)"
	}
	return strings.Join(out, "\n")
}
