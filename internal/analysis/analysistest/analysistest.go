// Package analysistest runs analyzers over small fixture packages and
// checks their diagnostics against `// want "regexp"` comments, in the
// style of golang.org/x/tools/go/analysis/analysistest (which the
// offline build cannot depend on — see package analysis).
//
// Fixtures live under <dir>/src/<pkgpath>/*.go. A fixture file may
// import other fixture packages by their <pkgpath>, and any standard
// library package (resolved from GOROOT source). Expectations attach to
// the line the comment sits on:
//
//	rand.Intn(4) // want `global rand`
//	m2 := f()    // want "first" "second"
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"graphspar/internal/analysis"
)

// Run loads each fixture package, applies the analyzer, and reports
// mismatches between actual diagnostics and want-comments through t.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l := newLoader(dir)
	for _, path := range pkgs {
		unit, err := l.load(path)
		if err != nil {
			t.Errorf("loading fixture %q: %v", path, err)
			continue
		}
		diags, err := unit.Run(a)
		if err != nil {
			t.Errorf("running %s on %q: %v", a.Name, path, err)
			continue
		}
		check(t, l.fset, unit, diags)
	}
}

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

// check compares diagnostics against want-comments, both directions.
func check(t *testing.T, fset *token.FileSet, unit *analysis.Unit, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*expectation{}
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				patterns, isWant := strings.CutPrefix(body, "want ")
				if !isWant {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range parsePatterns(t, pos, patterns) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", pos, pat, err)
						continue
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], &expectation{rx: rx})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		found := false
		for _, exp := range wants[k] {
			if !exp.matched && exp.rx.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	var keys []key
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, exp := range wants[k] {
			if !exp.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, exp.rx)
			}
		}
	}
}

// parsePatterns extracts the sequence of quoted or backquoted regexps
// following "want".
func parsePatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Errorf("%s: unterminated want pattern", pos)
				return out
			}
			pat, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Errorf("%s: bad want pattern %s: %v", pos, s[:end+1], err)
				return out
			}
			out = append(out, pat)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Errorf("%s: unterminated want pattern", pos)
				return out
			}
			out = append(out, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Errorf("%s: malformed want comment near %q", pos, s)
			return out
		}
	}
	return out
}

// loader loads fixture packages, resolving fixture imports recursively
// and standard-library imports from GOROOT source.
type loader struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*loadResult
}

type loadResult struct {
	unit *analysis.Unit
	err  error
}

func newLoader(dir string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		root: filepath.Join(dir, "src"),
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*loadResult{},
	}
}

func (l *loader) load(path string) (*analysis.Unit, error) {
	if r, ok := l.pkgs[path]; ok {
		return r.unit, r.err
	}
	// Mark in-progress to fail fast on import cycles.
	l.pkgs[path] = &loadResult{err: fmt.Errorf("import cycle through %q", path)}
	unit, err := l.loadUncached(path)
	l.pkgs[path] = &loadResult{unit: unit, err: err}
	return unit, err
}

func (l *loader) loadUncached(path string) (*analysis.Unit, error) {
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &analysis.Unit{Fset: l.fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}

// Import implements types.Importer: fixture packages take priority,
// everything else falls through to the GOROOT source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path))); err == nil {
		unit, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return unit.Pkg, nil
	}
	return l.std.Import(path)
}
