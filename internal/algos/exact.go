package algos

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/stream"
)

// hkAlg is the exact Hopcroft–Karp baseline on the engine driver:
// bipartite unit-capacity inputs only, one driver round per BFS+DFS
// phase, space = full materialization of the instance, honestly metered
// against the accountant. It is the "unlimited resources" corner of the
// cross-algorithm comparison: exact cardinality for the price of holding
// every edge centrally.
type hkAlg struct {
	g    *graph.Graph
	h    *matching.HKState
	done bool
}

// Init validates the model's preconditions (unit capacities, bipartite),
// materializes the stream in one metered pass, and 2-colors it.
func (a *hkAlg) Init(_ context.Context, run *engine.Run, src stream.Source) error {
	for v := 0; v < src.N(); v++ {
		if src.B(v) != 1 {
			return fmt.Errorf("%w: hopcroft-karp requires unit capacities (vertex %d has b=%d)",
				engine.ErrUnsupported, v, src.B(v))
		}
	}
	g := materialize(run, src)
	h, ok := matching.NewHopcroftKarp(g)
	if !ok {
		return fmt.Errorf("%w: hopcroft-karp requires a bipartite graph", engine.ErrUnsupported)
	}
	a.g = g
	a.h = h
	return nil
}

// Reset drops the per-run graph and phase state for session reuse; the
// exact baseline's state is the materialized instance, rebuilt per run.
func (a *hkAlg) Reset() {
	a.g = nil
	a.h = nil
	a.done = false
}

// Round runs one Hopcroft–Karp phase; the phase that finds no augmenting
// path proves the matching maximum and ends the loop (it still counts —
// it did a full BFS over the adjacency).
func (a *hkAlg) Round(_ context.Context, run *engine.Run) (bool, error) {
	if err := run.BeginRound(); err != nil {
		return false, err
	}
	found := a.h.Phase()
	if err := run.Check(); err != nil {
		return false, err
	}
	if !found {
		a.done = true
		return true, nil
	}
	return false, nil
}

// Finish emits the current matching — after round k it is a maximal set
// of shortest augmenting paths' worth of progress, feasible at every
// point, so budget trips return a valid partial matching.
func (a *hkAlg) Finish(_ *engine.Run) (*matching.Matching, engine.Extras) {
	if a.h == nil {
		return nil, engine.Extras{}
	}
	m := a.h.Matching()
	return m, engine.Extras{Weight: m.Weight(a.g), Stats: engine.Stats{EarlyStopped: a.done}}
}
