// Package analysistest runs an analyzer over a golden fixture package
// and checks its diagnostics against `// want` comment expectations —
// the same contract as golang.org/x/tools/go/analysis/analysistest,
// rebuilt on the standard library so the repo stays dependency-free.
//
// Fixtures live in a GOPATH-style tree under testdata/src/<importpath>.
// Fixture imports resolve first against other fixture packages in the
// same tree (so stubs of repro/internal/... packages can stand in for
// the real ones), then against the standard library via the source
// importer. The fixture's import path doubles as the unit path the
// analyzer sees, which is how scope-sensitive analyzers (maprange,
// noclock) are exercised both inside and outside their scope.
//
// Expectations are trailing comments of the form
//
//	code() // want "regexp"
//	code() // want "first" "second"
//
// Every diagnostic must match a want on its line (regexp match against
// the message), and every want must be matched by some diagnostic.
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
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// Run loads testdata/src/<path>, applies the analyzer, and reports any
// mismatch between diagnostics and // want expectations as test errors.
// It returns the surviving diagnostics for optional further assertions.
//
//lint:deadexport test harness: the analyzer tests in internal/analysis call it, nothing else may
func Run(t *testing.T, testdata, path string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	ld := &fixtureLoader{root: filepath.Join(testdata, "src")}
	unit, err := ld.load(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	if len(unit.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", path, unit.TypeErrors)
	}
	diags, err := unit.Run([]*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, path, err)
	}
	checkWants(t, unit, diags)
	return diags
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

func checkWants(t *testing.T, unit *analysis.Unit, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := unit.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
					pattern := strings.ReplaceAll(m[1], `\"`, `"`)
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: pattern})
				}
			}
		}
	}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", filepath.Base(w.file), w.line, w.raw)
		}
	}
}

// fixtureLoader type-checks fixture packages from a testdata/src tree.
type fixtureLoader struct {
	root  string
	mu    sync.Mutex
	cache map[string]*types.Package
	fset  *token.FileSet
	std   types.Importer
}

func (l *fixtureLoader) init() {
	if l.fset == nil {
		l.fset = token.NewFileSet()
		l.cache = map[string]*types.Package{}
		l.std = stdImporter(l.fset)
	}
}

// load parses and type-checks the fixture package at import path p,
// returning a ready analysis.Unit.
func (l *fixtureLoader) load(p string) (*analysis.Unit, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.init()
	files, err := l.parseDir(p)
	if err != nil {
		return nil, err
	}
	u := &analysis.Unit{Path: p, Fset: l.fset, Files: files}
	conf := types.Config{
		Importer: (*fixtureImporter)(l),
		Error:    func(err error) { u.TypeErrors = append(u.TypeErrors, err) },
	}
	u.Info = analysis.NewInfo()
	u.Pkg, _ = conf.Check(p, l.fset, files, u.Info)
	return u, nil
}

func (l *fixtureLoader) parseDir(p string) ([]*ast.File, error) {
	dir := filepath.Join(l.root, filepath.FromSlash(p))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// fixtureImporter resolves fixture-tree packages first, stdlib second.
type fixtureImporter fixtureLoader

func (l *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if _, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path))); err == nil {
		files, err := (*fixtureLoader)(l).parseDir(path)
		if err != nil {
			return nil, err
		}
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path, l.fset, files, nil)
		if err != nil {
			return nil, fmt.Errorf("fixture dependency %s: %w", path, err)
		}
		l.cache[path] = pkg
		return pkg, nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// stdImporter returns an importer for standard-library packages. The
// source importer type-checks from GOROOT source, which works offline
// and needs no export data for the test process.
func stdImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}
