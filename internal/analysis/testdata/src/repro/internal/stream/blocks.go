package stream

import "repro/internal/graph"

// ForEachBlocks stands in for the real metered block helper.
func ForEachBlocks(src Source, f func(base int, edges []graph.Edge) bool) {}

// SweepBlocks stands in for the real un-metered block helper.
func SweepBlocks(src Source, f func(base int, edges []graph.Edge) bool) {}

// SweepBlocksParallel stands in for the real un-metered sharded helper.
func SweepBlocksParallel(src Source, workers int, f func(base int, edges []graph.Edge)) {}
