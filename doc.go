// Package repro reproduces "Access to Data and Number of Iterations:
// Dual Primal Algorithms for Maximum Matching under Resource
// Constraints" by Kook Jin Ahn and Sudipto Guha (SPAA 2015,
// arXiv:1307.4359): a (1-ε)-approximation for weighted nonbipartite
// maximum b-matching using O(p/ε) rounds of adaptive sketching and
// O(n^(1+1/p)) central space.
//
// The public API is the repro/match package: match.New configures a
// solver with functional options, Solver.Solve(ctx, src) runs it
// against any stream backend with context cancellation honored at pass
// and round boundaries, match.Budget makes the paper's resource axes
// (passes, rounds, space) enforceable with best-so-far semantics, an
// Observer streams the per-round dual trajectory, and
// match.WithAlgorithm selects any substrate from the algorithm table
// (match.Algorithms) — all of them run on one shared round-loop driver,
// so resources meter and budget identically across models of
// computation. See the package documentation of repro/match for
// runnable examples.
//
// The machinery lives under internal/: the shared round-loop driver and
// engine.Solve, the one call every solve runs through (engine), the
// dual-primal solver (core), the table that builds every algorithm and
// the ported substrates in it (algos), the components they depend on
// (sketch, sparsify, matching, lp, oddset, pack, levels, stream,
// graph, parallel — the sharded worker pool), the distributed-model
// simulators (mapreduce, congest, semistream) and the experiment
// harness (bench). See DESIGN.md for the system inventory (section 8
// documents the facade, section 9 the engine) and EXPERIMENTS.md for
// measured results.
//
// The root package carries the benchmark entry points (bench_test.go):
// one testing.B benchmark per experiment table.
package repro
