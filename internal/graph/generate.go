package graph

import (
	"math"

	"repro/internal/xrand"
)

// Synthetic workload generators. The paper's regime of interest is
// m >> n^(1+1/p): dense-ish graphs whose edge set does not fit in the
// central space budget. WeightMode controls the edge-weight law; the
// paper assumes weights >= 1 rounded to powers of (1+eps), which
// PowersOf implements directly.

// WeightMode selects the distribution of edge weights.
type WeightMode int

const (
	// UnitWeights assigns weight 1 to every edge (cardinality matching).
	UnitWeights WeightMode = iota
	// UniformWeights draws uniform weights in [1, wmax].
	UniformWeights
	// PowersOf draws weights (1+eps)^k with k geometric-ish uniform in
	// [0, levels), the paper's discretized regime.
	PowersOf
	// ExpWeights draws weights exp(Exp(1)*scale), a heavy-ish tail.
	ExpWeights
)

// WeightConfig parameterizes weight generation.
type WeightConfig struct {
	Mode   WeightMode
	WMax   float64 // UniformWeights: maximum weight (default 100)
	Eps    float64 // PowersOf: base eps (default 0.25)
	Levels int     // PowersOf: number of levels (default 12)
	Scale  float64 // ExpWeights: exponent scale (default 2)
}

// Draw samples one edge weight from the configured law.
func (wc WeightConfig) Draw(r *xrand.RNG) float64 {
	switch wc.Mode {
	case UnitWeights:
		return 1
	case UniformWeights:
		wmax := wc.WMax
		if wmax <= 1 {
			wmax = 100
		}
		return 1 + r.Float64()*(wmax-1)
	case PowersOf:
		eps := wc.Eps
		if eps <= 0 {
			eps = 0.25
		}
		levels := wc.Levels
		if levels <= 0 {
			levels = 12
		}
		return math.Pow(1+eps, float64(r.Intn(levels)))
	case ExpWeights:
		scale := wc.Scale
		if scale <= 0 {
			scale = 2
		}
		return math.Exp(r.Exp() * scale)
	default:
		return 1
	}
}

// GNM returns a uniform random simple graph with n vertices and m distinct
// edges (m is capped at n*(n-1)/2).
func GNM(n, m int, wc WeightConfig, seed uint64) *Graph {
	g := New(n)
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	r := xrand.New(seed)
	seen := make(map[uint64]bool, m)
	for len(g.edges) < m {
		u := r.Intn(n)
		v := r.Intn(n)
		if u == v {
			continue
		}
		k := KeyOf(int32(u), int32(v))
		if seen[k] {
			continue
		}
		seen[k] = true
		g.MustAddEdge(u, v, wc.Draw(r))
	}
	return g
}

// GNP returns an Erdos-Renyi G(n,p) graph using geometric edge skipping,
// O(n + m) time.
func GNP(n int, p float64, wc WeightConfig, seed uint64) *Graph {
	g := New(n)
	if p <= 0 {
		return g
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.MustAddEdge(u, v, wc.Draw(xrand.New(seed+uint64(u*n+v))))
			}
		}
		return g
	}
	r := xrand.New(seed)
	logq := math.Log(1 - p)
	// Iterate over pair index space with geometric skips.
	total := int64(n) * int64(n-1) / 2
	idx := int64(-1)
	for {
		u := r.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		skip := int64(math.Floor(math.Log(u) / logq))
		idx += 1 + skip
		if idx >= total {
			break
		}
		// Decode pair index into (a, b), a < b, row-major over rows a.
		a := int64(0)
		rem := idx
		rowLen := int64(n - 1)
		for rem >= rowLen {
			rem -= rowLen
			a++
			rowLen--
		}
		b := a + 1 + rem
		g.MustAddEdge(int(a), int(b), wc.Draw(r))
	}
	return g
}

// Bipartite returns a random bipartite graph with sides of size nl and nr
// (vertices 0..nl-1 on the left) and m distinct edges.
func Bipartite(nl, nr, m int, wc WeightConfig, seed uint64) *Graph {
	g := New(nl + nr)
	maxM := nl * nr
	if m > maxM {
		m = maxM
	}
	r := xrand.New(seed)
	seen := make(map[uint64]bool, m)
	for len(g.edges) < m {
		u := r.Intn(nl)
		v := nl + r.Intn(nr)
		k := KeyOf(int32(u), int32(v))
		if seen[k] {
			continue
		}
		seen[k] = true
		g.MustAddEdge(u, v, wc.Draw(r))
	}
	return g
}

// PowerLaw returns a Chung–Lu style graph whose expected degree sequence
// follows a power law with the given exponent (typically 2..3). Simple
// graph; the number of edges concentrates near the target avgDeg*n/2.
func PowerLaw(n int, avgDeg float64, exponent float64, wc WeightConfig, seed uint64) *Graph {
	r := xrand.New(seed)
	wts := make([]float64, n)
	sum := 0.0
	for i := range wts {
		// w_i ~ i^{-1/(exponent-1)} scaled to the average degree.
		wts[i] = math.Pow(float64(i+1), -1/(exponent-1))
		sum += wts[i]
	}
	scale := avgDeg * float64(n) / sum
	for i := range wts {
		wts[i] *= scale
	}
	g := New(n)
	seen := make(map[uint64]bool)
	// Sample edges proportional to w_i w_j / sum via weighted sampling of
	// endpoints; repeat until target edge count is reached or attempts
	// are exhausted.
	target := int(avgDeg * float64(n) / 2)
	cdf := make([]float64, n)
	acc := 0.0
	for i, w := range wts {
		acc += w
		cdf[i] = acc
	}
	pick := func() int {
		u := r.Float64() * acc
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	for attempts := 0; len(g.edges) < target && attempts < 20*target+100; attempts++ {
		u, v := pick(), pick()
		if u == v {
			continue
		}
		k := KeyOf(int32(u), int32(v))
		if seen[k] {
			continue
		}
		seen[k] = true
		g.MustAddEdge(u, v, wc.Draw(r))
	}
	return g
}

// PlantedMatching returns a graph containing a planted perfect matching of
// high weight plus m random low-weight noise edges. The planted matching
// weight is known exactly, giving a certified lower bound on the optimum
// for large instances where exact solvers are too slow.
//
//lint:deadexport cross-package fixture: the core and matching tests solve planted instances against the known weight
func PlantedMatching(n, m int, plantW, noiseWMax float64, seed uint64) (*Graph, float64) {
	if n%2 == 1 {
		n++
	}
	r := xrand.New(seed)
	g := New(n)
	perm := r.Perm(n)
	total := 0.0
	for i := 0; i < n; i += 2 {
		g.MustAddEdge(perm[i], perm[i+1], plantW)
		total += plantW
	}
	seen := make(map[uint64]bool)
	for _, e := range g.edges {
		seen[e.Key()] = true
	}
	for added := 0; added < m; {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		k := KeyOf(int32(u), int32(v))
		if seen[k] {
			continue
		}
		seen[k] = true
		g.MustAddEdge(u, v, 1+r.Float64()*(noiseWMax-1))
		added++
	}
	return g, total
}

// TriangleGap builds the paper's Section 1 gadget: a triangle whose apex
// vertex (vertex 0) is incident to two edges of weight 1 while the
// opposite edge has weight 10ε. The integral optimum is 1 (one heavy
// edge), but the bipartite relaxation assigns 1/2 to all three edges for
// value (1 + 1 + 10ε)/2 = 1 + 5ε — the odd-set constraint on the whole
// triangle is required for a (1-ε) approximation.
func TriangleGap(eps float64) *Graph {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(1, 2, 10*eps)
	return g
}

// TriangleChain builds a chain of k disjoint triangles (3k vertices) with
// unit weights: the fractional bipartite LP assigns 1/2 to every triangle
// edge (value 3k/2) while the integral optimum is k. A standard stress
// test for odd-set handling.
func TriangleChain(k int) *Graph {
	g := New(3 * k)
	for t := 0; t < k; t++ {
		a, b, c := 3*t, 3*t+1, 3*t+2
		g.MustAddEdge(a, b, 1)
		g.MustAddEdge(b, c, 1)
		g.MustAddEdge(a, c, 1)
	}
	return g
}

// WithRandomB assigns random capacities b_i in [1, bmax] (Zipf-weighted
// toward 1 when zipf is true) and returns the same graph for chaining.
func WithRandomB(g *Graph, bmax int, zipf bool, seed uint64) *Graph {
	r := xrand.New(seed)
	var z *xrand.Zipfian
	if zipf {
		z = xrand.NewZipf(bmax, 1.5)
	}
	for v := 0; v < g.N(); v++ {
		if zipf {
			g.SetB(v, z.Draw(r))
		} else {
			g.SetB(v, 1+r.Intn(bmax))
		}
	}
	return g
}
