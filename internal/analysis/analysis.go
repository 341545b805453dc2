// Package analysis is the repo's static-analysis framework: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// model (Analyzer / Pass / Diagnostic) plus a package loader built on
// `go list -export` and the standard go/types checker.
//
// The analyzers in this package encode the invariants the conformance
// suites otherwise only catch dynamically — bit-identical determinism
// across worker counts, the unforgeable pass meter, RNG discipline, and
// error-chain integrity (see DESIGN.md §13). cmd/matchlint is the CLI
// driver; `make lint` and CI run it over the whole tree.
//
// # Suppression policy
//
// A finding can be justified away with a directive comment on the same
// line (or the line directly above):
//
//	//lint:<token> <justification>
//
// where <token> is the analyzer's suppression token (e.g. "ordered" for
// maprange). The justification text is mandatory: a bare //lint:<token>
// does not suppress, so every exception in the tree documents *why* the
// invariant holds at that site.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is the one-paragraph description shown by matchlint -list.
	Doc string
	// Suppress is the //lint:<token> that justifies findings away.
	Suppress string
	// IncludeTests makes findings in _test.go files reportable. Most
	// analyzers guard production determinism and skip test files.
	IncludeTests bool
	// Facts, when set, runs once over every unit of a load before the
	// per-unit passes; its result reaches each pass as Pass.Facts. A
	// whole-program analyzer (deadexport) collects its cross-package
	// facts here.
	Facts func(units []*Unit) any
	// Run inspects one package unit and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package unit.
type Pass struct {
	Analyzer *Analyzer
	// Path is the unit's import path. External test packages ("x_test"
	// files) form their own unit with Path = <pkgpath>_test.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Facts is the analyzer's Facts result over the whole load.
	Facts any
	diags []Diagnostic
}

// Diagnostic is one reported finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// PkgPath returns the unit's library import path: for an external test
// unit ("repro/internal/core_test") it strips the _test suffix, so scope
// checks treat test files as part of the package they exercise.
func (p *Pass) PkgPath() string {
	return strings.TrimSuffix(p.Path, "_test")
}

// suppression is one //lint:<token> directive found in a file.
type suppression struct {
	token     string
	justified bool
}

// suppressionsByLine scans a file's comments for //lint: directives.
// A directive covers its own line and the line below it, so both
// trailing comments and a comment line directly above the finding work.
func suppressionsByLine(fset *token.FileSet, f *ast.File) map[int][]suppression {
	out := map[int][]suppression{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//lint:")
			if !ok {
				continue
			}
			tok, just, _ := strings.Cut(rest, " ")
			if tok == "" {
				continue
			}
			s := suppression{token: tok, justified: strings.TrimSpace(just) != ""}
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], s)
			out[line+1] = append(out[line+1], s)
		}
	}
	return out
}

// Unit is one loaded, type-checked package unit ready for analysis.
type Unit struct {
	Path  string // import path; external test units carry a _test suffix
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-check failures. Analysis proceeds on
	// partial information; the CLI surfaces them as fatal.
	TypeErrors []error
}

// Run applies the analyzers to the unit and returns the surviving
// diagnostics: findings in _test.go files are dropped for analyzers that
// exclude tests, and findings covered by a justified //lint:<token>
// directive are suppressed (a bare directive keeps the finding and says
// so, keeping the justification policy honest).
func (u *Unit) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	return u.run(analyzers, collectFacts([]*Unit{u}, analyzers))
}

func (u *Unit) run(analyzers []*Analyzer, facts map[*Analyzer]any) ([]Diagnostic, error) {
	supp := map[string]map[int][]suppression{}
	for _, f := range u.Files {
		pos := u.Fset.Position(f.Pos())
		supp[pos.Filename] = suppressionsByLine(u.Fset, f)
	}
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     u.Path,
			Fset:     u.Fset,
			Files:    u.Files,
			Pkg:      u.Pkg,
			Info:     u.Info,
			Facts:    facts[a],
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, u.Path, err)
		}
	diags:
		for _, d := range pass.diags {
			if !a.IncludeTests && strings.HasSuffix(d.Pos.Filename, "_test.go") {
				continue
			}
			bare := false
			for _, s := range supp[d.Pos.Filename][d.Pos.Line] {
				if s.token != a.Suppress {
					continue
				}
				if s.justified {
					continue diags
				}
				bare = true
			}
			if bare {
				d.Message += fmt.Sprintf(" (bare //lint:%s needs a justification)", a.Suppress)
			}
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out, nil
}

// RunAll applies the analyzers to every unit and returns all surviving
// diagnostics in file/line order.
func RunAll(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := collectFacts(units, analyzers)
	var out []Diagnostic
	for _, u := range units {
		ds, err := u.run(analyzers, facts)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	sortDiagnostics(out)
	return out, nil
}

// collectFacts runs each analyzer's Facts over the units once.
func collectFacts(units []*Unit, analyzers []*Analyzer) map[*Analyzer]any {
	facts := map[*Analyzer]any{}
	for _, a := range analyzers {
		if a.Facts != nil {
			facts[a] = a.Facts(units)
		}
	}
	return facts
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// inScope reports whether path matches any of the given import paths.
func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s {
			return true
		}
	}
	return false
}
