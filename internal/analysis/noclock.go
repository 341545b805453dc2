package analysis

import (
	"go/ast"
	"go/types"
)

// clockScope lists the packages whose computations must replay
// bit-identically: the deterministic substrates plus the round-loop
// driver, the algorithm adapters, the stream backends and the shared
// model packages. Wall-clock reads there would leak real time into
// round decisions, breaking replay, session reuse and the
// worker-count-independence contract. The serving and benchmarking
// layers (internal/serve, internal/bench) measure latency by design and
// are out of scope, as are cmd/ and the public facade.
var clockScope = append([]string{
	"repro/internal/engine",
	"repro/internal/algos",
	"repro/internal/stream",
	"repro/internal/matching",
	"repro/internal/graph",
	"repro/internal/unionfind",
	"repro/internal/parallel",
	"repro/internal/xrand",
}, DeterministicPkgs...)

// NoClock reports wall-clock reads (time.Now, time.Since, time.Until)
// inside the deterministic packages and the round-loop machinery.
// time.Duration values and timers for tests are fine — the analyzer
// skips _test.go files — but algorithm code must never branch on real
// time.
var NoClock = &Analyzer{
	Name:     "noclock",
	Doc:      "flags time.Now/Since/Until in algorithm and round-loop packages where wall-clock reads break replay and bit-identity; justify with //lint:wallclock",
	Suppress: "wallclock",
	Run:      runNoClock,
}

func runNoClock(pass *Pass) error {
	if !inScope(pass.PkgPath(), clockScope) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Now", "Since", "Until":
			default:
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.objectOf(id).(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			pass.Reportf(call.Pos(), "wall-clock read time.%s in a deterministic package: round decisions must be pure functions of the input (replay and session reuse depend on it); justify with //lint:wallclock if this never influences results", sel.Sel.Name)
			return true
		})
	}
	return nil
}
