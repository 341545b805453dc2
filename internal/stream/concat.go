package stream

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// ConcatSource composes sub-sources over the same vertex set into one
// stream — the sharded input of the parallel pipeline (file shards,
// generator shards, or a mix). Edge indices are globally contiguous:
// sub-source i's edges occupy [offset_i, offset_i + len_i). A parallel
// sweep runs the sub-sources concurrently, each through its own sharded
// sweep, so the exactly-once index contract (and therefore the
// worker-count bit-identity of index-keyed consumers) is preserved.
//
// ConcatSource meters its own passes; the sub-sources' counters are not
// advanced (the composition is the stream, its parts are storage shards).
type ConcatSource struct {
	sweeps
	subs    []Source
	offsets []int
	total   int
}

var _ Source = (*ConcatSource)(nil)

// Concat composes the sub-sources. They must agree on the vertex set:
// same N and the same per-vertex capacities.
func Concat(subs ...Source) (*ConcatSource, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("stream: concat of zero sources")
	}
	n := subs[0].N()
	for si, sub := range subs[1:] {
		if sub.N() != n {
			return nil, fmt.Errorf("stream: concat sub %d has n=%d, want %d", si+1, sub.N(), n)
		}
		if sub.TotalB() != subs[0].TotalB() {
			return nil, fmt.Errorf("stream: concat sub %d capacity sum %d differs from %d", si+1, sub.TotalB(), subs[0].TotalB())
		}
		for v := 0; v < n; v++ {
			if sub.B(v) != subs[0].B(v) {
				return nil, fmt.Errorf("stream: concat sub %d disagrees on b(%d)", si+1, v)
			}
		}
	}
	c := &ConcatSource{subs: subs, offsets: make([]int, len(subs))}
	for si, sub := range subs {
		c.offsets[si] = c.total
		c.total += sub.Len()
	}
	c.own(c.inOrder, c.sharded)
	return c, nil
}

// N returns the number of vertices.
func (c *ConcatSource) N() int { return c.subs[0].N() }

// B returns the capacity of vertex v.
func (c *ConcatSource) B(v int) int { return c.subs[0].B(v) }

// TotalB returns Σ b_i.
func (c *ConcatSource) TotalB() int { return c.subs[0].TotalB() }

// Len returns the total stream length.
func (c *ConcatSource) Len() int { return c.total }

// inOrder sweeps the sub-sources' blocks in order, each shifted by its
// offset so dense runs stay dense.
func (c *ConcatSource) inOrder(f func(base int, edges []graph.Edge) bool) {
	for si, sub := range c.subs {
		off := c.offsets[si]
		aborted := false
		SweepBlocks(sub, func(base int, edges []graph.Edge) bool {
			if !f(off+base, edges) {
				aborted = true
				return false
			}
			return true
		})
		if aborted {
			return
		}
	}
}

// sharded sweeps the sub-sources concurrently, each through its own
// sharded block sweep on its slice of the worker budget.
func (c *ConcatSource) sharded(workers int, f func(base int, edges []graph.Edge)) {
	inner := max(parallel.Workers(workers)/len(c.subs), 1)
	parallel.Run(workers, len(c.subs), func(si int) {
		off := c.offsets[si]
		SweepBlocksParallel(c.subs[si], inner, func(base int, edges []graph.Edge) {
			f(off+base, edges)
		})
	})
}
