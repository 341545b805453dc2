package sketch

import (
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Parallel incidence-sketch construction (DESIGN.md, "Parallel
// pipeline"). The bank is sharded by vertex range: every vertex's sketch
// column is owned by exactly one worker; a single sequential scan
// buckets each edge's two endpoint updates by owning shard and the
// workers then apply only their own bucket (the sketch updates dominate
// the bucketing scan by orders of magnitude). Because the sketches are
// linear (integer counters), the final bank state is exactly the state
// the sequential AddEdgeBlock produces, for any worker count —
// per-vertex update order is edge order in both cases.

// NewBank returns a zeroed bank, allocating the per-vertex sketch
// columns across workers (0 = GOMAXPROCS, 1 = sequential). Allocation is
// the dominant cost of a bank at Õ(polylog) words per (vertex,
// repetition) pair, which is why it shards alongside the updates.
func (spec *IncidenceSpec) NewBank(workers int) *Bank {
	b := &Bank{spec: spec, sketches: make([][]*L0, spec.reps)}
	for r := 0; r < spec.reps; r++ {
		b.sketches[r] = make([]*L0, spec.n)
	}
	parallel.ForEachShard(workers, spec.n, func(_ int, sh parallel.Range) {
		for v := sh.Lo; v < sh.Hi; v++ {
			for r := 0; r < spec.reps; r++ {
				b.sketches[r][v] = spec.specs[r].NewL0()
			}
		}
	})
	return b
}

// Reset zeroes every column in place, sharded by vertex range like
// NewBank, so that the bank can be refilled without allocating: a Reset
// bank is in the state NewBank constructs.
func (b *Bank) Reset(workers int) {
	parallel.ForEachShard(workers, b.spec.n, func(_ int, sh parallel.Range) {
		for v := sh.Lo; v < sh.Hi; v++ {
			for r := range b.sketches {
				b.sketches[r][v].Reset()
			}
		}
	})
}

// AddEdges inserts every edge into the bank with the work sharded by
// vertex range across workers. A single O(m) scan buckets the two
// endpoint updates of each edge by owning shard; workers then apply only
// their own bucket, so total work stays O(m) plus the sketch updates
// regardless of worker count. Within a bucket updates keep edge order,
// so the result is bit-identical to AddEdgeBlock over the same edges,
// for any worker count. Panics on self loops, like AddEdgeBlock.
func (b *Bank) AddEdges(edges []graph.Edge, workers int) {
	shards := parallel.Shards(b.spec.n, parallel.Workers(workers))
	if len(shards) <= 1 {
		// Sequential: skip the bucketing pass entirely.
		b.AddEdgeBlock(edges)
		return
	}
	shardOf := make([]int32, b.spec.n)
	for si, sh := range shards {
		for v := sh.Lo; v < sh.Hi; v++ {
			shardOf[v] = int32(si)
		}
	}
	buckets := make([][]bankUpd, len(shards))
	for _, e := range edges {
		if e.U == e.V {
			panic("sketch: self loop")
		}
		key := graph.KeyOf(e.U, e.V)
		lo, hi := e.U, e.V
		if lo > hi {
			lo, hi = hi, lo
		}
		buckets[shardOf[lo]] = append(buckets[shardOf[lo]], bankUpd{v: lo, delta: 1, key: key})
		buckets[shardOf[hi]] = append(buckets[shardOf[hi]], bankUpd{v: hi, delta: -1, key: key})
	}
	b.applyBuckets(workers, buckets)
}

// bankUpd is one endpoint update routed to its owning vertex shard.
type bankUpd struct {
	v     int32
	delta int64
	key   uint64
}

// applyBuckets has each shard's owner absorb its own updates in order.
func (b *Bank) applyBuckets(workers int, buckets [][]bankUpd) {
	parallel.Run(workers, len(buckets), func(si int) {
		b.absorb(buckets[si])
	})
}

// absorb applies one shard's routed endpoint updates in order through
// the hoisted kernel: per update the key reduction and field delta are
// computed once, and each repetition evaluates z^key once through its
// window table instead of a square-and-multiply per cell. Bit-identical
// to the per-endpoint L0.Update loop it replaces.
func (b *Bank) absorb(upds []bankUpd) {
	for i := range upds {
		u := &upds[i]
		keyMod := u.key % prime
		d := toField(u.delta)
		for r := range b.sketches {
			zk := b.spec.specs[r].sspec.zpow.Pow(u.key)
			b.sketches[r][u.v].updateRaw(keyMod, d, zk)
		}
	}
}
