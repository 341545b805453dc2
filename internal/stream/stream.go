// Package stream models the constrained data-access regimes of the paper:
// a read-only edge stream (semi-streaming) with explicit pass accounting,
// and a space accountant that tracks the peak number of words of random
// accessible storage the algorithm holds at any time.
//
// The access side is pluggable (see Source): the same metered-sweep
// contract is served by an in-memory edge list, an on-disk binary file, a
// replayed synthetic generator, or a sharded composition, so algorithms
// written against Source run out-of-core unchanged.
//
// Nothing in this package enforces the constraints by construction (the
// process obviously has RAM); instead the resources are *measured* so that
// experiments E2/E9/E15 can report rounds/passes and peak space and compare
// them to the paper's O(p/ε) and O(n^(1+1/p)) bounds.
package stream

import (
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// EdgeStream is the in-memory Source: a materialized graph presented as a
// replayable, read-only sequence of edges.
type EdgeStream struct {
	meter
	g *graph.Graph
}

var _ Source = (*EdgeStream)(nil)

// NewEdgeStream wraps a graph as a stream. The graph must not be mutated
// afterwards.
func NewEdgeStream(g *graph.Graph) *EdgeStream {
	return &EdgeStream{g: g}
}

// N returns the number of vertices.
func (s *EdgeStream) N() int { return s.g.N() }

// B returns the capacity of vertex v.
func (s *EdgeStream) B(v int) int { return s.g.B(v) }

// TotalB returns Σ b_i.
func (s *EdgeStream) TotalB() int { return s.g.TotalB() }

// Len returns the stream length m.
func (s *EdgeStream) Len() int { return s.g.M() }

// ForEach performs one pass over the edges in arrival order. The callback
// receives the edge index and the edge. Returning false aborts the pass
// (it still counts as a pass).
func (s *EdgeStream) ForEach(f func(idx int, e graph.Edge) bool) {
	s.pass()
	s.Sweep(f)
}

// Sweep is ForEach without the pass charge (Source contract).
func (s *EdgeStream) Sweep(f func(idx int, e graph.Edge) bool) {
	for i, e := range s.g.Edges() {
		if !f(i, e) {
			return
		}
	}
}

// ForEachParallel performs one pass over the edges with the work sharded
// by edge range across workers (0 = GOMAXPROCS, 1 = sequential). The
// callback may run concurrently from multiple goroutines and there is no
// early abort; each edge index is visited exactly once, so callbacks that
// only write index-keyed slots need no synchronization. The whole sweep
// counts as a single pass regardless of worker count — the shards
// together read the input once, exactly as the distributed mappers of
// Section 4.2 share one round.
func (s *EdgeStream) ForEachParallel(workers int, f func(idx int, e graph.Edge)) {
	s.pass()
	s.SweepParallel(workers, f)
}

// SweepParallel is ForEachParallel without the pass charge.
func (s *EdgeStream) SweepParallel(workers int, f func(idx int, e graph.Edge)) {
	edges := s.g.Edges()
	parallel.ForEachShard(workers, len(edges), func(_ int, r parallel.Range) {
		for i := r.Lo; i < r.Hi; i++ {
			f(i, edges[i])
		}
	})
}

// ForEachBlocks performs one metered pass in dense blocks
// (BlockSweeper contract). Blocks are zero-copy sub-slices of the
// materialized edge list.
func (s *EdgeStream) ForEachBlocks(f func(base int, edges []graph.Edge) bool) {
	s.pass()
	s.SweepBlocks(f)
}

// SweepBlocks is ForEachBlocks without the pass charge.
func (s *EdgeStream) SweepBlocks(f func(base int, edges []graph.Edge) bool) {
	edges := s.g.Edges()
	sliceBlocks(edges, 0, len(edges), f)
}

// ForEachBlocksParallel performs one metered pass with blocks sharded
// by edge range across workers (BlockSweeper contract).
func (s *EdgeStream) ForEachBlocksParallel(workers int, f func(base int, edges []graph.Edge)) {
	s.pass()
	s.SweepBlocksParallel(workers, f)
}

// SweepBlocksParallel is ForEachBlocksParallel without the pass charge.
func (s *EdgeStream) SweepBlocksParallel(workers int, f func(base int, edges []graph.Edge)) {
	edges := s.g.Edges()
	parallel.ForEachShard(workers, len(edges), func(_ int, r parallel.Range) {
		sliceBlocks(edges, r.Lo, r.Hi, func(base int, blk []graph.Edge) bool {
			f(base, blk)
			return true
		})
	})
}

// SpaceAccountant tracks words of central storage in use and its peak.
// All methods are safe for concurrent use.
type SpaceAccountant struct {
	current int64
	peak    int64
}

// NewSpaceAccountant returns a zeroed accountant.
func NewSpaceAccountant() *SpaceAccountant { return &SpaceAccountant{} }

// Alloc records the acquisition of words of storage.
func (a *SpaceAccountant) Alloc(words int) {
	cur := atomic.AddInt64(&a.current, int64(words))
	for {
		p := atomic.LoadInt64(&a.peak)
		if cur <= p || atomic.CompareAndSwapInt64(&a.peak, p, cur) {
			return
		}
	}
}

// Free records the release of words of storage. Freeing more than is held
// panics: that is always an accounting bug.
func (a *SpaceAccountant) Free(words int) {
	if atomic.AddInt64(&a.current, -int64(words)) < 0 {
		panic(fmt.Sprintf("stream: freed %d words below zero", words))
	}
}

// Current returns the words currently held.
func (a *SpaceAccountant) Current() int { return int(atomic.LoadInt64(&a.current)) }

// Peak returns the maximum words ever held simultaneously.
func (a *SpaceAccountant) Peak() int { return int(atomic.LoadInt64(&a.peak)) }
