// meteredsweep fixture: block sweeps skip the pass meter exactly like
// per-edge ones, whether called as methods or through the stream
// package's block helpers.
package semistream

import (
	"repro/internal/graph"
	"repro/internal/stream"
)

// blockSource mirrors the block sweep surface of stream.BlockSweeper.
type blockSource interface {
	ForEachBlocks(f func(base int, edges []graph.Edge) bool)
	SweepBlocks(f func(base int, edges []graph.Edge) bool)
	SweepBlocksParallel(workers int, f func(base int, edges []graph.Edge))
}

func helperOffMeter(src stream.Source) {
	stream.SweepBlocks(src, func(base int, edges []graph.Edge) bool { return true }) // want "SweepBlocks bypasses the pass accountant; use the metered ForEachBlocks"
}

func methodOffMeter(src blockSource) {
	src.SweepBlocksParallel(2, func(base int, edges []graph.Edge) {}) // want "SweepBlocksParallel bypasses the pass accountant"
}

func meteredBlocks(src stream.Source, b blockSource) {
	stream.ForEachBlocks(src, func(base int, edges []graph.Edge) bool { return true })
	b.ForEachBlocks(func(base int, edges []graph.Edge) bool { return true })
}

func justifiedOffMeter(src stream.Source) {
	//lint:unmetered admission-time checksum of the input, not an algorithm pass
	stream.SweepBlocks(src, func(base int, edges []graph.Edge) bool { return true })
}

// SweepBlocks, a package-level function outside internal/stream, is not
// a Source sweep.
func SweepBlocks() {}

func localFuncIsFine() { SweepBlocks() }
