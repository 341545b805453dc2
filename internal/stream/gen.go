package stream

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// GenSource is the generator-backed Source: instead of storing edges
// anywhere, every pass replays a seeded synthetic generator. The edge
// sequence is a pure function of the spec — edges are drawn in fixed-size
// blocks, each block from its own pre-split RNG — so passes are
// bit-identical to each other and parallel sweeps shard on block
// boundaries without coordination. A GenSource
// holds O(1) state per sweep: it is the backend for scaling runs at sizes
// that cannot be materialized (experiment E13/E15 regime m >> RAM).
//
// The generator is a uniform multigraph sampler: each edge picks two
// distinct uniform endpoints and a weight from the configured law.
// Duplicate pairs are possible (the paper's algorithms accept parallel
// edges); deduplication would require Ω(m) memory and is exactly what
// this backend exists to avoid.
type GenSource struct {
	sweeps
	spec   GenSpec
	capSd  uint64
	totalB int
}

// GenSpec parameterizes a GenSource.
type GenSpec struct {
	// N is the vertex count (>= 2 when M > 0).
	N int
	// M is the edge count.
	M int
	// Weights selects the edge-weight law.
	Weights graph.WeightConfig
	// Seed drives all randomness.
	Seed uint64
	// BMax > 1 assigns deterministic pseudo-random capacities in
	// [1, BMax]; otherwise all capacities are 1.
	BMax int
}

// genBlockEdges is the replay granule: every block of this many edges is
// drawn from its own seed-derived RNG. It is a constant so the edge
// sequence never depends on worker count or sweep shape.
const genBlockEdges = 1 << 12

var _ Source = (*GenSource)(nil)

// NewGen returns a generator-backed source for the spec.
func NewGen(spec GenSpec) (*GenSource, error) {
	if spec.M < 0 || spec.N < 0 {
		return nil, fmt.Errorf("stream: negative generator size n=%d m=%d", spec.N, spec.M)
	}
	if spec.M > 0 && spec.N < 2 {
		return nil, fmt.Errorf("stream: need n >= 2 for m=%d generated edges", spec.M)
	}
	if spec.N > math.MaxInt32 {
		return nil, fmt.Errorf("stream: generator n=%d exceeds the int32 vertex ids of graph.Edge", spec.N)
	}
	s := &GenSource{spec: spec, capSd: xrand.Mix64(spec.Seed ^ 0xcab0cab0cab0cab0)}
	s.totalB = 0
	for v := 0; v < spec.N; v++ {
		s.totalB += s.B(v)
	}
	s.ranged(s.Len, s.read, s.read)
	return s, nil
}

// N returns the number of vertices.
func (s *GenSource) N() int { return s.spec.N }

// B returns the capacity of vertex v (a pure function of the seed).
func (s *GenSource) B(v int) int {
	if s.spec.BMax <= 1 {
		return 1
	}
	return 1 + int(xrand.Mix64(s.capSd+uint64(v))%uint64(s.spec.BMax))
}

// TotalB returns Σ b_i.
func (s *GenSource) TotalB() int { return s.totalB }

// Len returns the stream length m.
func (s *GenSource) Len() int { return s.spec.M }

// blockRNG returns the generator for block b.
func (s *GenSource) blockRNG(b int) *xrand.RNG {
	return xrand.New(xrand.Mix64(s.spec.Seed ^ (uint64(b)+1)*0x9e3779b97f4a7c15))
}

// drawEdge draws the next edge of a block's stream.
func (s *GenSource) drawEdge(r *xrand.RNG) graph.Edge {
	n := s.spec.N
	for {
		u := r.Intn(n)
		v := r.Intn(n)
		if u == v {
			continue
		}
		return graph.Edge{U: int32(u), V: int32(v), W: s.spec.Weights.Draw(r)}
	}
}

// read replays edges [lo, hi) in dense blocks (the backend's one read
// loop). Replay blocks map one-to-one onto delivered blocks (BlockEdges
// equals the replay granule), regenerated into per-call scratch sized to
// the largest block the range can deliver, which the callback must not
// retain. The first touched block's prefix is regenerated and discarded
// (at most genBlockEdges wasted draws per call).
func (s *GenSource) read(lo, hi int, f func(base int, edges []graph.Edge) bool) bool {
	scratch := make([]graph.Edge, min(genBlockEdges, hi-lo))
	for b := lo / genBlockEdges; b*genBlockEdges < hi; b++ {
		blockLo := b * genBlockEdges
		emitLo := max(blockLo, lo)
		emitHi := min(blockLo+genBlockEdges, s.spec.M, hi)
		if emitLo >= emitHi {
			continue
		}
		r := s.blockRNG(b)
		for i := blockLo; i < emitLo; i++ {
			s.drawEdge(r) // burn the block prefix to stay aligned
		}
		blk := scratch[:emitHi-emitLo]
		for i := range blk {
			blk[i] = s.drawEdge(r)
		}
		if !f(emitLo, blk) {
			return false
		}
	}
	return true
}
