package stream

import (
	"sync/atomic"

	"repro/internal/graph"
)

// Source is the "access to data" abstraction of the paper, separated from
// the iteration machinery that consumes it: a replayable, read-only edge
// sequence over a fixed vertex set with known capacities, plus explicit
// pass accounting. The solver, the semi-streaming baselines, the
// filtering algorithms and the sketch builders all consume this interface
// rather than a materialized *graph.Graph, so the same algorithm runs
// against an in-memory edge list (EdgeStream), an on-disk binary file
// (FileSource), a replayed synthetic generator (GenSource) or a
// composition of shards (ConcatSource) without change.
//
// Edge indices are stable across passes: every sweep enumerates the same
// (idx, edge) pairs in the same order, and idx ranges over [0, Len()) for
// the primary backends (a Filtered view reuses its parent's indices, so
// there the idx sequence is a strictly increasing subsequence). That
// stability is what lets downstream samples refer back to edges by index.
//
// ForEach and ForEachParallel are the metered sweeps algorithm code must
// use: each call counts one pass, aborted or not. Sweep and SweepParallel
// are the raw, un-metered primitives beneath them; they exist so derived
// views (Filtered, ConcatSource) can enumerate their parent without
// charging the parent a pass — the view meters its own passes, matching
// the paper's accounting where each per-level stream runs on its own
// machine. Algorithm code should never call Sweep directly.
type Source interface {
	// N returns the number of vertices (known a priori, as is standard in
	// semi-streaming).
	N() int
	// B returns the capacity of vertex v (also known a priori).
	B(v int) int
	// TotalB returns Σ b_i.
	TotalB() int
	// Len returns the stream length m. Knowing m (or an upper bound) is
	// standard for choosing subsampling depths.
	Len() int
	// Passes returns how many metered passes have been consumed.
	Passes() int
	// ForEach performs one pass over the edges in arrival order. The
	// callback receives the edge index and the edge. Returning false
	// aborts the pass (it still counts as a pass).
	ForEach(f func(idx int, e graph.Edge) bool)
	// ForEachParallel performs one pass with the work sharded by edge
	// range across workers (0 = GOMAXPROCS, 1 = sequential). The callback
	// may run concurrently from multiple goroutines and there is no early
	// abort; each edge index is visited exactly once, so callbacks that
	// only write index-keyed slots need no synchronization. The whole
	// sweep counts as a single pass regardless of worker count — the
	// shards together read the input once, exactly as the distributed
	// mappers of Section 4.2 share one round.
	ForEachParallel(workers int, f func(idx int, e graph.Edge))
	// Sweep is ForEach without the pass charge (see the interface doc).
	Sweep(f func(idx int, e graph.Edge) bool)
	// SweepParallel is ForEachParallel without the pass charge.
	SweepParallel(workers int, f func(idx int, e graph.Edge))
}

// meter is the shared pass counter backends embed. It is safe for
// concurrent use.
type meter struct {
	passes int64
}

// Passes returns how many metered passes have been consumed.
func (m *meter) Passes() int { return int(atomic.LoadInt64(&m.passes)) }

// pass records one consumed pass.
func (m *meter) pass() { atomic.AddInt64(&m.passes, 1) }

// Materialize reads the whole source into an in-memory graph (one metered
// pass). It is the bridge back from the streaming world for consumers
// that genuinely need random access to everything — exact reference
// solvers, importers — and is obviously only usable when the instance
// fits in memory.
func Materialize(src Source) *graph.Graph {
	g := graph.New(src.N())
	for v := 0; v < src.N(); v++ {
		if b := src.B(v); b != 1 {
			g.SetB(v, b)
		}
	}
	ForEachBlocks(src, func(_ int, edges []graph.Edge) bool {
		for i := range edges {
			g.MustAddEdge(int(edges[i].U), int(edges[i].V), edges[i].W)
		}
		return true
	})
	return g
}

// MaxWeight scans for W* = max edge weight (one metered pass; 0 for an
// edgeless source). The weight-discretization scheme needs W* before any
// other pass can classify edges by level.
func MaxWeight(src Source) float64 {
	w := 0.0
	ForEachBlocks(src, func(_ int, edges []graph.Edge) bool {
		for i := range edges {
			if edges[i].W > w {
				w = edges[i].W
			}
		}
		return true
	})
	return w
}
