package graph

import (
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// Sharded synthetic generation (DESIGN.md, "Parallel pipeline"). The
// generator is a deterministic function of its parameters and seed: the
// target is split into shards whose count depends only on the instance
// size, every shard draws from its own pre-split RNG, and shard outputs
// merge in shard order. The worker count changes wall-clock time only —
// BipartiteParallel(…, seed, 1) and BipartiteParallel(…, seed, 8) build
// the same graph. It defines its own (equally valid) distribution; it
// does not reproduce the exact edge sequence of the sequential
// Bipartite.

// gnmShardTarget is the edges-per-shard granule of BipartiteParallel. It
// is a constant so the shard decomposition — and therefore the output —
// never depends on the worker count.
const gnmShardTarget = 1 << 13

// sampledSimpleParallel is the engine of BipartiteParallel: split the
// m-edge target into size-derived shard quotas, rejection-sample each
// shard's quota with its pre-split RNG (sample draws a candidate pair or
// ok=false to retry), merge in shard order dropping the rare cross-shard
// duplicates, and top up the shortfall sequentially from a reserved
// child RNG. Deterministic in (n, m, wc, seed, sample) for any worker
// count.
func sampledSimpleParallel(n, m int, wc WeightConfig, seed uint64, workers int,
	sample func(r *xrand.RNG) (u, v int32, ok bool)) *Graph {

	g := New(n)
	if m <= 0 {
		return g
	}
	numShards := (m + gnmShardTarget - 1) / gnmShardTarget
	root := xrand.New(seed)
	rngs := parallel.SplitRNGs(root, numShards+1)
	quotas := parallel.Shards(m, numShards)
	shardEdges := parallel.Map(workers, numShards, func(s int) []Edge {
		r := rngs[s]
		quota := quotas[s].Len()
		local := make(map[uint64]bool, quota)
		es := make([]Edge, 0, quota)
		for len(es) < quota {
			u, v, ok := sample(r)
			if !ok {
				continue
			}
			k := KeyOf(u, v)
			if local[k] {
				continue
			}
			local[k] = true
			es = append(es, Edge{U: u, V: v, W: wc.Draw(r)})
		}
		return es
	})
	seen := make(map[uint64]bool, m)
	for _, es := range shardEdges {
		for _, e := range es {
			k := e.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			g.edges = append(g.edges, e)
		}
	}
	// Top up cross-shard collisions sequentially from the reserved child.
	fill := rngs[numShards]
	for len(g.edges) < m {
		u, v, ok := sample(fill)
		if !ok {
			continue
		}
		k := KeyOf(u, v)
		if seen[k] {
			continue
		}
		seen[k] = true
		g.edges = append(g.edges, Edge{U: u, V: v, W: wc.Draw(fill)})
	}
	return g
}

// BipartiteParallel returns a random bipartite graph with sides of size
// nl and nr (vertices 0..nl-1 on the left) and m distinct edges (m
// capped at nl*nr), built by sharded workers.
//
//lint:deadexport cross-package fixture: the pinned match and core corpora generate their bipartite instance with it
func BipartiteParallel(nl, nr, m int, wc WeightConfig, seed uint64, workers int) *Graph {
	if maxM := nl * nr; m > maxM {
		m = maxM
	}
	return sampledSimpleParallel(nl+nr, m, wc, seed, workers, func(r *xrand.RNG) (int32, int32, bool) {
		return int32(r.Intn(nl)), int32(nl + r.Intn(nr)), true
	})
}
