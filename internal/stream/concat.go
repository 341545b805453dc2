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
	meter
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

// ForEach performs one pass over the sub-sources in order. Returning
// false aborts the pass (it still counts as a pass).
func (c *ConcatSource) ForEach(f func(idx int, e graph.Edge) bool) {
	c.pass()
	c.Sweep(f)
}

// Sweep is ForEach without the pass charge (Source contract).
func (c *ConcatSource) Sweep(f func(idx int, e graph.Edge) bool) {
	for si, sub := range c.subs {
		off := c.offsets[si]
		aborted := false
		sub.Sweep(func(i int, e graph.Edge) bool {
			if !f(off+i, e) {
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

// ForEachParallel performs one pass with the sub-sources swept
// concurrently, each sharded internally across its slice of the worker
// budget. Counts one pass for any worker count (Source contract).
func (c *ConcatSource) ForEachParallel(workers int, f func(idx int, e graph.Edge)) {
	c.pass()
	c.SweepParallel(workers, f)
}

// ForEachBlocks performs one metered pass over the sub-sources in
// order, in dense blocks (BlockSweeper contract). Each sub-source's
// blocks are shifted by its offset, so dense runs stay dense.
func (c *ConcatSource) ForEachBlocks(f func(base int, edges []graph.Edge) bool) {
	c.pass()
	c.SweepBlocks(f)
}

// SweepBlocks is ForEachBlocks without the pass charge.
func (c *ConcatSource) SweepBlocks(f func(base int, edges []graph.Edge) bool) {
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

// ForEachBlocksParallel performs one metered pass with the sub-sources
// swept concurrently, each delivering blocks through its own sharded
// block sweep (BlockSweeper contract).
func (c *ConcatSource) ForEachBlocksParallel(workers int, f func(base int, edges []graph.Edge)) {
	c.pass()
	c.SweepBlocksParallel(workers, f)
}

// SweepBlocksParallel is ForEachBlocksParallel without the pass charge.
func (c *ConcatSource) SweepBlocksParallel(workers int, f func(base int, edges []graph.Edge)) {
	inner := parallel.Workers(workers) / len(c.subs)
	if inner < 1 {
		inner = 1
	}
	parallel.Run(workers, len(c.subs), func(si int) {
		off := c.offsets[si]
		SweepBlocksParallel(c.subs[si], inner, func(base int, edges []graph.Edge) {
			f(off+base, edges)
		})
	})
}

// SweepParallel is ForEachParallel without the pass charge.
func (c *ConcatSource) SweepParallel(workers int, f func(idx int, e graph.Edge)) {
	inner := parallel.Workers(workers) / len(c.subs)
	if inner < 1 {
		inner = 1
	}
	parallel.Run(workers, len(c.subs), func(si int) {
		off := c.offsets[si]
		c.subs[si].SweepParallel(inner, func(i int, e graph.Edge) {
			f(off+i, e)
		})
	})
}
