package sparsify

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/parallel"
)

// Deferred implements Definition 4 (The Deferred Cut-Sparsifier Problem):
// sampling decisions are made from promise values ς with the guarantee
// ς_e/χ ≤ u_e ≤ ς_e·χ for the true (hidden) weights u, oversampling every
// retention probability by Θ(χ²). After construction, the exact u values
// of the *stored* edges are revealed via Refine, which produces the final
// (1±ξ) cut sparsifier of the u-weighted graph.
//
// In the paper the promise values are the edge multipliers at sampling
// time and the true values are the multipliers at use time, which drift
// by at most e^(±ε) per inner iteration — χ = γ = n^(1/(2p)) covers a full
// batch of −ε⁻¹·log γ iterations (Theorem 3).
type Deferred struct {
	n     int
	items []Item // probabilities fixed at sampling time; Weight holds ς until refined

	// revealed and refined are RefineWith's buffers, reused by its next
	// call on the structure.
	revealed []float64
	refined  []Item
}

// NewDeferred samples the structure D from promise values sigma (indexed
// like edges) by feeding edges 0..m−1 to a DeferredBuilder. chi ≥ 1 is
// the promised distortion bound. edgeEndpoints(i) gives edge i's
// endpoints; the weights used are sigma, and the items carry W = 0.
func NewDeferred(n int, edgeEndpoints func(i int) (u, v int32), m int, sigma []float64, chi float64, cfg Config) (*Deferred, error) {
	var b DeferredBuilder
	if err := b.Reset(n, m, chi, cfg); err != nil {
		return nil, err
	}
	if len(sigma) != m {
		return nil, fmt.Errorf("sparsify: %d promise values for %d edges", len(sigma), m)
	}
	for i := 0; i < m; i++ {
		u, v := edgeEndpoints(i)
		b.Add(i, u, v, 0, i, sigma[i])
	}
	d := *b.Finish() // a copy, so the builder's forests are not kept alive
	return &d, nil
}

// deferredConfig resolves a deferred construction's configuration: fill
// in defaults, then oversample by chi² (Lemma 17: "multiply p′_e by
// O(χ²)") by raising the connectivity threshold K by chi², which
// multiplies every edge's retention probability by ~chi² *and* keeps the
// construction consistent — an edge whose subsampling level reaches its
// (new, lower) critical level necessarily enters a forest there, so the
// inverse-probability estimator stays unbiased. This is exactly where
// the χ² factor of the O(nχ²ξ⁻²·polylog) space bound comes from.
func deferredConfig(n int, chi float64, cfg Config) Config {
	cfg = cfg.withDefaults(n)
	boost := int(math.Ceil(chi * chi))
	if boost < 1 {
		boost = 1
	}
	const maxK = 1 << 13 // memory guard; beyond this the structure would
	// store everything anyway at the sizes this repository runs
	if cfg.K > maxK/boost {
		cfg.K = maxK
	} else {
		cfg.K *= boost
	}
	return cfg
}

// Size returns the number of stored edges (the structure's space).
func (d *Deferred) Size() int { return len(d.items) }

// Items returns the stored items (read-only; the slice is the
// structure's backing store). Each Item carries the edge's endpoints,
// original index and weight, and its sampling-time promise value in
// Weight — everything the union and reveal steps need without touching
// the input stream again.
func (d *Deferred) Items() []Item { return d.items }

// Refine reveals the exact weights of the stored edges and returns the
// final sparsifier. reveal is called only for stored edge indices; it
// must return the true weight u_e. Edges whose revealed weight is zero
// are dropped. The result is valid until d's next refinement.
func (d *Deferred) Refine(reveal func(edgeIdx int) float64) *Sparsifier {
	return d.RefineWith(1, func(it Item) float64 { return reveal(it.EdgeIdx) })
}

// RefineWith is Refine with the reveal callback handed the whole stored
// Item rather than just its local index, and the reveal calls sharded by
// item range across workers (0 = GOMAXPROCS, 1 = sequential). The reveal
// can use the endpoints (and the provisional promise value in Weight)
// directly, so refinement needs no random access back into the input
// stream — the out-of-core reveal path of the solver. reveal must be
// safe for concurrent calls when workers != 1 — in the solver it is a
// read-only evaluation of the frozen dual state. Output order is the
// same for any worker count. The returned sparsifier's Items are d's
// own buffer: they are valid until the next RefineWith on d.
func (d *Deferred) RefineWith(workers int, reveal func(it Item) float64) *Sparsifier {
	revealed := slices.Grow(d.revealed[:0], len(d.items))[:len(d.items)]
	parallel.ForEachShard(workers, len(d.items), func(_ int, sh parallel.Range) {
		for i := sh.Lo; i < sh.Hi; i++ {
			revealed[i] = reveal(d.items[i])
		}
	})
	items := slices.Grow(d.refined[:0], len(d.items))
	for i, it := range d.items {
		if revealed[i] <= 0 {
			continue
		}
		it.Weight = revealed[i] / it.Prob
		items = append(items, it)
	}
	d.revealed, d.refined = revealed, items
	return &Sparsifier{N: d.n, Items: items}
}
