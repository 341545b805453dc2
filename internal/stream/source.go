package stream

import (
	"context"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
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
// (and their block forms, see BlockSweeper) are the raw, un-metered
// forms; they exist so derived views (Filtered, ConcatSource) can
// enumerate their parent without charging the parent a pass — the view
// meters its own passes, matching the paper's accounting where each
// per-level stream runs on its own machine. Algorithm code should never
// call them directly.
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

// sweeps is the one implementation of the eight sweep methods of Source
// and BlockSweeper; every stream type embeds it and supplies only how it
// reads edges, as two block sweeps: blocks delivers the edges in index
// order until f returns false, and shards delivers each edge exactly once
// with the work split across workers. Both are told whether the call is
// a metered pass. The per-edge forms unpack blocks, so a backend has one
// read loop. A type that meters its own passes sets the pair through own
// (or ranged, for a backend that reads any index range); Cancellable
// forwards the flag to the source it guards instead.
type sweeps struct {
	passes atomic.Int64
	blocks func(metered bool, f func(base int, edges []graph.Edge) bool)
	shards func(metered bool, workers int, f func(base int, edges []graph.Edge))
}

// Passes returns how many metered passes have been consumed.
func (s *sweeps) Passes() int { return int(s.passes.Load()) }

// own sets the sweeps of a type that meters its own passes from its
// un-metered sequential and sharded block sweeps: a metered call charges
// one pass, aborted or not, for any worker count.
func (s *sweeps) own(seq func(f func(base int, edges []graph.Edge) bool), par func(workers int, f func(base int, edges []graph.Edge))) {
	s.blocks = func(metered bool, f func(base int, edges []graph.Edge) bool) {
		if metered {
			s.passes.Add(1)
		}
		seq(f)
	}
	s.shards = func(metered bool, workers int, f func(base int, edges []graph.Edge)) {
		if metered {
			s.passes.Add(1)
		}
		par(workers, f)
	}
}

// ranged sets the sweeps of a backend whose edges are [0, m()) and whose
// one read loop, read, delivers any index range [lo, hi) in blocks and
// reports false when f aborted. A sharded sweep splits the edges into
// contiguous index ranges, one read per range.
func (s *sweeps) ranged(m func() int, read func(lo, hi int, f func(base int, edges []graph.Edge) bool) bool) {
	s.own(func(f func(base int, edges []graph.Edge) bool) { read(0, m(), f) },
		func(workers int, f func(base int, edges []graph.Edge)) {
			parallel.ForEachShard(workers, m(), func(_ int, r parallel.Range) {
				read(r.Lo, r.Hi, func(base int, edges []graph.Edge) bool {
					f(base, edges)
					return true
				})
			})
		})
}

// ForEach performs one metered pass over the edges in index order.
// Returning false aborts the pass (it still counts as a pass).
func (s *sweeps) ForEach(f func(idx int, e graph.Edge) bool) { s.blocks(true, eachEdge(f)) }

// Sweep is ForEach without the pass charge (Source contract).
func (s *sweeps) Sweep(f func(idx int, e graph.Edge) bool) { s.blocks(false, eachEdge(f)) }

// ForEachParallel performs one metered pass sharded across workers
// (Source contract).
func (s *sweeps) ForEachParallel(workers int, f func(idx int, e graph.Edge)) {
	s.shards(true, workers, eachEdgeParallel(f))
}

// SweepParallel is ForEachParallel without the pass charge.
func (s *sweeps) SweepParallel(workers int, f func(idx int, e graph.Edge)) {
	s.shards(false, workers, eachEdgeParallel(f))
}

// ForEachBlocks performs one metered pass in dense blocks (BlockSweeper
// contract).
func (s *sweeps) ForEachBlocks(f func(base int, edges []graph.Edge) bool) { s.blocks(true, f) }

// SweepBlocks is ForEachBlocks without the pass charge.
func (s *sweeps) SweepBlocks(f func(base int, edges []graph.Edge) bool) { s.blocks(false, f) }

// ForEachBlocksParallel performs one metered pass with blocks sharded
// across workers (BlockSweeper contract).
func (s *sweeps) ForEachBlocksParallel(workers int, f func(base int, edges []graph.Edge)) {
	s.shards(true, workers, f)
}

// SweepBlocksParallel is ForEachBlocksParallel without the pass charge.
func (s *sweeps) SweepBlocksParallel(workers int, f func(base int, edges []graph.Edge)) {
	s.shards(false, workers, f)
}

// eachEdge adapts a per-edge callback to blocks; the block sweep aborts
// as soon as the callback does.
func eachEdge(f func(idx int, e graph.Edge) bool) func(base int, edges []graph.Edge) bool {
	return func(base int, edges []graph.Edge) bool {
		for i := range edges {
			if !f(base+i, edges[i]) {
				return false
			}
		}
		return true
	}
}

// eachEdgeParallel adapts a per-edge parallel callback to blocks.
func eachEdgeParallel(f func(idx int, e graph.Edge)) func(base int, edges []graph.Edge) {
	return func(base int, edges []graph.Edge) {
		for i := range edges {
			f(base+i, edges[i])
		}
	}
}

// Cancellable returns src guarded by ctx: once ctx is done, a sequential
// sweep stops at the next block boundary, through the sweep's normal
// early-abort path, so an aborted pass still counts exactly one pass.
// The guard meters nothing itself — its metered sweeps are metered
// sweeps of src, un-metered ones stay un-metered, and Passes is src's —
// so a run that is never cancelled is bit-identical to an unguarded one.
// Parallel sweeps pass straight through unguarded. Views derived from
// the guard (per-level Filtered streams) inherit it through their
// parent's block sweeps. A context that can never be done returns src
// itself.
func Cancellable(ctx context.Context, src Source) Source {
	if ctx.Done() == nil {
		return src
	}
	c := &cancellable{inner: src}
	c.blocks = func(metered bool, f func(base int, edges []graph.Edge) bool) {
		guarded := func(base int, edges []graph.Edge) bool { return ctx.Err() == nil && f(base, edges) }
		if metered {
			ForEachBlocks(src, guarded)
		} else {
			SweepBlocks(src, guarded)
		}
	}
	c.shards = func(metered bool, workers int, f func(base int, edges []graph.Edge)) {
		if metered {
			ForEachBlocksParallel(src, workers, f)
		} else {
			SweepBlocksParallel(src, workers, f)
		}
	}
	return c
}

// cancellable is the source Cancellable returns: the shared sweeps over
// the guarded block sweeps, and the wrapped source's instance metadata
// and pass meter.
type cancellable struct {
	sweeps
	inner Source
}

func (c *cancellable) N() int      { return c.inner.N() }
func (c *cancellable) B(v int) int { return c.inner.B(v) }
func (c *cancellable) TotalB() int { return c.inner.TotalB() }
func (c *cancellable) Len() int    { return c.inner.Len() }
func (c *cancellable) Passes() int { return c.inner.Passes() }

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
