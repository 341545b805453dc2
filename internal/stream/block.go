package stream

import "repro/internal/graph"

// Block sweeps: the batched form of the Source sweep contract. A block
// sweep delivers the same (idx, edge) sequence as the per-edge sweep,
// but in dense runs — the callback receives a base index and a slice of
// edges where edges[i] is the edge at stream index base+i — so the hot
// consumers (the solver's sampling pass, the sketch bank builds, the
// greedy baselines) pay one callback per few thousand edges instead of
// one interface call plus one closure call per edge.
//
// The contract, relative to the per-edge sweeps:
//
//   - Concatenating the delivered (base+i, edges[i]) pairs yields
//     exactly the per-edge sweep's sequence: same indices, same order.
//   - ForEachBlocks meters one pass, aborted or not, exactly like
//     ForEach; SweepBlocks is un-metered, exactly like Sweep.
//   - Returning false aborts the sweep at block granularity (the
//     coarser abort is the price of batching; pass accounting is
//     unchanged).
//   - The edge slice is only valid during the callback: backends are
//     free to reuse the underlying buffer for the next block (the
//     file and generator backends do), so callbacks must copy what
//     they keep.
//   - Parallel block sweeps shard like their per-edge counterparts:
//     each index is delivered exactly once, blocks may arrive
//     concurrently from multiple goroutines, one pass total.
//
// Every stream type in this package implements BlockSweeper natively —
// block sweeps are the primitive its per-edge sweeps unpack (see
// sweeps) — and every other Source still conforms through the
// package-level helpers, which fall back to batching the per-edge
// sweep. Wrapper types that intercept ForEach / ForEachParallel by
// embedding a backend must intercept the block methods too — the
// helpers type-assert the whole value, so an embedded backend's native
// block methods would otherwise bypass the wrapper.

// BlockEdges is the default block granule: big enough to amortize the
// callback, small enough that a sweep's working set stays cache-sized
// (it matches the generator's replay granule, so generated blocks map
// one-to-one onto delivered blocks).
const BlockEdges = 1 << 12

// BlockSweeper is the optional batched-sweep extension of a Source.
// Every stream type in this package implements it; consumers reach it
// through ForEachBlocks / SweepBlocks and friends, never by asserting
// it themselves, so sources without a native implementation conform
// through the fallback.
type BlockSweeper interface {
	// ForEachBlocks performs one metered pass in dense blocks.
	ForEachBlocks(f func(base int, edges []graph.Edge) bool)
	// SweepBlocks is ForEachBlocks without the pass charge.
	SweepBlocks(f func(base int, edges []graph.Edge) bool)
	// ForEachBlocksParallel performs one metered pass with blocks
	// sharded by edge range across workers; no early abort.
	ForEachBlocksParallel(workers int, f func(base int, edges []graph.Edge))
	// SweepBlocksParallel is ForEachBlocksParallel without the pass
	// charge.
	SweepBlocksParallel(workers int, f func(base int, edges []graph.Edge))
}

// ForEachBlocks performs one metered pass over src in dense blocks,
// using the backend's native block sweep when it has one and batching
// src.ForEach otherwise. Pass metering and early-abort accounting are
// the backend's own either way.
func ForEachBlocks(src Source, f func(base int, edges []graph.Edge) bool) {
	if b, ok := src.(BlockSweeper); ok {
		b.ForEachBlocks(f)
		return
	}
	sweepToBlocks(src.ForEach, f)
}

// SweepBlocks is ForEachBlocks without the pass charge.
func SweepBlocks(src Source, f func(base int, edges []graph.Edge) bool) {
	if b, ok := src.(BlockSweeper); ok {
		b.SweepBlocks(f)
		return
	}
	sweepToBlocks(src.Sweep, f)
}

// ForEachBlocksParallel performs one metered pass with blocks sharded
// across workers. Without a native implementation the fallback
// delivers blocks sequentially from one goroutine — still exactly
// once per index, still one pass — since per-edge parallel callbacks
// arrive unordered and cannot be rebatched into dense runs.
func ForEachBlocksParallel(src Source, workers int, f func(base int, edges []graph.Edge)) {
	if b, ok := src.(BlockSweeper); ok {
		b.ForEachBlocksParallel(workers, f)
		return
	}
	sweepToBlocks(src.ForEach, func(base int, edges []graph.Edge) bool {
		f(base, edges)
		return true
	})
}

// SweepBlocksParallel is ForEachBlocksParallel without the pass charge.
func SweepBlocksParallel(src Source, workers int, f func(base int, edges []graph.Edge)) {
	if b, ok := src.(BlockSweeper); ok {
		b.SweepBlocksParallel(workers, f)
		return
	}
	sweepToBlocks(src.Sweep, func(base int, edges []graph.Edge) bool {
		f(base, edges)
		return true
	})
}

// sweepToBlocks batches a per-edge sweep into maximal dense runs of up
// to BlockEdges edges. Non-contiguous indices flush the pending run, so
// every delivered block is dense by construction.
func sweepToBlocks(sweep func(f func(idx int, e graph.Edge) bool), f func(base int, edges []graph.Edge) bool) {
	buf := make([]graph.Edge, 0, BlockEdges)
	base := 0
	stopped := false
	sweep(func(idx int, e graph.Edge) bool {
		if len(buf) == BlockEdges || (len(buf) > 0 && idx != base+len(buf)) {
			if !f(base, buf) {
				stopped = true
				return false
			}
			buf = buf[:0]
		}
		if len(buf) == 0 {
			base = idx
		}
		buf = append(buf, e)
		return true
	})
	if !stopped && len(buf) > 0 {
		f(base, buf)
	}
}
