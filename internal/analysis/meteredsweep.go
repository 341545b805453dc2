package analysis

import (
	"go/ast"
	"go/types"
)

// streamPkg is where the metered Source abstraction and its raw sweep
// primitives live; derived views there legitimately forward Sweep.
const streamPkg = "repro/internal/stream"

// MeteredSweep keeps the paper's central meter unforgeable: outside
// internal/stream, a raw sweep — the Sweep, SweepParallel, SweepBlocks
// or SweepBlocksParallel method, or the stream.SweepBlocks /
// stream.SweepBlocksParallel helper — reads the data without charging a
// pass, so algorithm, solver and engine code must go through the
// metered ForEach forms (or the stream.ForEachBlocks helpers) instead.
// Serving-layer bookkeeping and benchmarks that deliberately stay off
// the meter carry a //lint:unmetered justification.
var MeteredSweep = &Analyzer{
	Name:     "meteredsweep",
	Doc:      "flags raw Sweep/SweepParallel/SweepBlocks/SweepBlocksParallel calls (methods, or the stream block helpers) outside internal/stream: they bypass the pass accountant; use the metered ForEach form or justify with //lint:unmetered",
	Suppress: "unmetered",
	Run:      runMeteredSweep,
}

// rawSweeps maps each raw sweep name to its metered counterpart.
var rawSweeps = map[string]string{
	"Sweep":               "ForEach",
	"SweepParallel":       "ForEachParallel",
	"SweepBlocks":         "ForEachBlocks",
	"SweepBlocksParallel": "ForEachBlocksParallel",
}

func runMeteredSweep(pass *Pass) error {
	if pass.PkgPath() == streamPkg {
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
			name := sel.Sel.Name
			metered, raw := rawSweeps[name]
			if !raw {
				return true
			}
			// Only Source sweeps count: a method call, or the block
			// helper of the stream package — not some other package's
			// function that happens to share the name.
			if pass.Info != nil && !isMethodCall(pass, sel) && !isStreamFunc(pass, sel) {
				return true
			}
			pass.Reportf(call.Pos(), "%s bypasses the pass accountant; use the metered %s (or justify with //lint:unmetered if this is a view/bookkeeping sweep)", name, metered)
			return true
		})
	}
	return nil
}

func isMethodCall(pass *Pass, sel *ast.SelectorExpr) bool {
	s := pass.Info.Selections[sel]
	return s != nil && s.Kind() == types.MethodVal
}

func isStreamFunc(pass *Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == streamPkg
}
