package match

import (
	"repro/internal/algos"
	"repro/internal/engine"
)

// DefaultAlgorithm is the algorithm a Solver runs when WithAlgorithm is
// not given: the paper's dual-primal solver.
const DefaultAlgorithm = "dual-primal"

// AlgorithmInfo describes one algorithm of the table: its name, the
// model of computation it belongs to, its guarantee, and its resource
// profile in the paper's currency (passes, rounds, central words).
type AlgorithmInfo = algos.Info

// Algorithms enumerates every matching algorithm, sorted by name. Any
// returned Name is valid for WithAlgorithm; all of them run under the
// same round-loop driver, so budgets, observers, cancellation and the
// Stats meters behave uniformly across the table.
func Algorithms() []AlgorithmInfo { return algos.List() }

// ErrUnsupported is the sentinel Solve errors wrap when the configured
// algorithm does not support the instance (e.g. hopcroft-karp on a
// nonbipartite graph or non-unit capacities). Match it with errors.Is to
// distinguish "wrong algorithm for this input" from solver failures.
var ErrUnsupported = engine.ErrUnsupported

// WithAlgorithm selects which algorithm the Solver runs; see Algorithms
// for the table. The default is DefaultAlgorithm, the dual-primal
// solver. Every algorithm honors the same budgets, observer events and
// context cancellation; options an algorithm has no use for (e.g.
// WithEps for the exact baseline) are ignored by it.
func WithAlgorithm(name string) Option {
	return func(s *Solver) { s.algo = name }
}
