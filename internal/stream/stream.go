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
)

// EdgeStream is the in-memory Source: a materialized graph presented as a
// replayable, read-only sequence of edges.
type EdgeStream struct {
	sweeps
	g *graph.Graph
}

var _ Source = (*EdgeStream)(nil)

// NewEdgeStream wraps a graph as a stream. The graph must not be mutated
// afterwards.
func NewEdgeStream(g *graph.Graph) *EdgeStream {
	s := &EdgeStream{g: g}
	s.ranged(s.Len, s.read, s.read)
	return s
}

// N returns the number of vertices.
func (s *EdgeStream) N() int { return s.g.N() }

// B returns the capacity of vertex v.
func (s *EdgeStream) B(v int) int { return s.g.B(v) }

// TotalB returns Σ b_i.
func (s *EdgeStream) TotalB() int { return s.g.TotalB() }

// Len returns the stream length m.
func (s *EdgeStream) Len() int { return s.g.M() }

// read delivers edges [lo, hi) as zero-copy sub-slices of the resident
// edge list, at most BlockEdges each (the backend's one read loop).
func (s *EdgeStream) read(lo, hi int, f func(base int, edges []graph.Edge) bool) bool {
	edges := s.g.Edges()
	for b := lo; b < hi; b += BlockEdges {
		e := min(b+BlockEdges, hi)
		if !f(b, edges[b:e:e]) {
			return false
		}
	}
	return true
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
