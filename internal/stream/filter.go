package stream

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Filtered is a predicate-restricted view of a parent Source: the same
// vertex set, only the edges satisfying keep, with the parent's edge
// indices preserved (so the idx sequence is a strictly increasing
// subsequence of [0, parent.Len())). It is how per-level streams are
// derived without materializing per-level subgraphs — the device behind
// Lemma 20's per-level initial solutions running out-of-core.
//
// A Filtered view meters its own passes and does not advance the
// parent's counter: in the paper's accounting each level's stream runs
// on its own machine, and the driver charges the parent once per
// conceptual round, not once per level.
type Filtered struct {
	sweeps
	parent Source
	keep   func(idx int, e graph.Edge) bool

	lenOnce sync.Once
	length  int64
}

var _ Source = (*Filtered)(nil)

// NewFilter returns the view of parent restricted to edges with
// keep(idx, e) == true. keep must be pure and safe for concurrent calls.
func NewFilter(parent Source, keep func(idx int, e graph.Edge) bool) *Filtered {
	s := &Filtered{parent: parent, keep: keep}
	s.own(s.inOrder, s.sharded)
	return s
}

// N returns the number of vertices.
func (s *Filtered) N() int { return s.parent.N() }

// B returns the capacity of vertex v.
func (s *Filtered) B(v int) int { return s.parent.B(v) }

// TotalB returns Σ b_i.
func (s *Filtered) TotalB() int { return s.parent.TotalB() }

// Len returns the number of edges passing the filter. The first call
// counts them with one raw sweep of the parent and caches the result.
func (s *Filtered) Len() int {
	s.lenOnce.Do(func() {
		var cnt int64
		SweepBlocks(s.parent, func(base int, edges []graph.Edge) bool {
			for i := range edges {
				if s.keep(base+i, edges[i]) {
					cnt++
				}
			}
			return true
		})
		atomic.StoreInt64(&s.length, cnt)
	})
	return int(atomic.LoadInt64(&s.length))
}

// inOrder sweeps the parent's blocks un-metered, splitting each into the
// maximal runs of kept edges and delivering every run as a zero-copy
// sub-slice, so the sparse-index subsequence still arrives as dense
// blocks.
func (s *Filtered) inOrder(f func(base int, edges []graph.Edge) bool) {
	SweepBlocks(s.parent, func(base int, edges []graph.Edge) bool {
		return filterBlocks(base, edges, s.keep, f)
	})
}

// sharded is inOrder over the parent's sharded block sweep.
func (s *Filtered) sharded(workers int, f func(base int, edges []graph.Edge)) {
	SweepBlocksParallel(s.parent, workers, func(base int, edges []graph.Edge) {
		filterBlocks(base, edges, s.keep, func(b int, blk []graph.Edge) bool {
			f(b, blk)
			return true
		})
	})
}
