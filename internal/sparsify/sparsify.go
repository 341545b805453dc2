// Package sparsify implements cut sparsification as used by the paper:
//
//   - the single-pass streaming construction of Algorithm 6 (geometric
//     edge-subsampling levels G_0 ⊇ G_1 ⊇ …, with k spanning forests per
//     level estimating edge connectivity), following Benczúr–Karger
//     sampling as systematized by Fung et al. and Ahn–Guha–McGregor;
//   - weighted sparsification by weight class (sum of per-class
//     sparsifiers is a sparsifier of the sum — Lemma 17's proof);
//   - the *deferred* sparsifier of Definition 4: sampling decisions are
//     made from promise values ς with ς/χ ≤ u ≤ ςχ, oversampling by
//     Θ(χ²); the exact weights u are revealed only for stored edges, after
//     which Refine produces an unbiased (1±ξ) cut approximation.
//
// Edges kept at critical level i′ (the smallest subsampling level at which
// the endpoints are no longer k-connected) survive with probability
// 2^(−i′); inverse-probability weighting makes every cut unbiased, and
// k = O(ξ⁻² log² n) concentrates it.
package sparsify

import (
	"math"

	"repro/internal/unionfind"
	"repro/internal/xrand"
)

// Config parameterizes a sparsifier construction.
type Config struct {
	// K is the number of spanning forests per subsampling level
	// (connectivity threshold). The theory wants O(ξ⁻² log² n); the
	// constructor computes a default from Xi and N when K == 0.
	K int
	// Xi is the target cut accuracy (default 0.25 when 0).
	Xi float64
	// Seed drives all sampling.
	Seed uint64
}

func (c Config) withDefaults(n int) Config {
	if c.Xi <= 0 {
		c.Xi = 0.25
	}
	if c.K == 0 {
		logn := math.Log2(float64(n) + 1)
		c.K = int(math.Ceil(2 * logn / (c.Xi * c.Xi)))
		if c.K < 4 {
			c.K = 4
		}
	}
	return c
}

// Sparsifier is the output: a weighted subgraph approximating all cuts of
// the input within (1 ± ξ) with high probability.
type Sparsifier struct {
	N     int
	Items []Item
}

// Item is one stored edge with its inverse-probability weight. An Item
// carries everything downstream consumers need about the edge — the
// refinement reveal and the union/offline steps of the solver work from
// stored Items alone, with no random access back into the input stream.
type Item struct {
	EdgeIdx int     // index into the construction's local edge sequence
	Orig    int     // index into the original source stream (== EdgeIdx from NewDeferred)
	U, V    int32   // endpoints
	W       float64 // original edge weight (0 when the builder was not told it)
	Weight  float64 // reweighted value (source weight / retention prob)
	Prob    float64 // retention probability used
}

// CutWeight evaluates the sparsifier's estimate of the cut around the set.
func (s *Sparsifier) CutWeight(inSet []bool) float64 {
	t := 0.0
	for _, it := range s.Items {
		if inSet[it.U] != inSet[it.V] {
			t += it.Weight
		}
	}
	return t
}

// construction holds the per-level forest state of one weight class of a
// DeferredBuilder.
type construction struct {
	cfg    Config
	n      int
	numLv  int
	hash   *xrand.PolyHash   // draws each edge's geometric subsampling level
	ufs    [][]*unionfind.UF // [level][j], j < K
	stored [][]int           // [level] -> ids of the edges stored in forests
	// spare, when non-nil, is the owner's list of retired forests over n
	// elements, which newForest draws from before allocating.
	spare *[]*unionfind.UF
	class int // the weight class a DeferredBuilder last armed it for
}

// reset arms c for a fresh construction. A retired construction keeps
// its spines and its empty rows' capacity; the hash is always rebuilt
// from the seed, so a reused construction computes exactly what a fresh
// one does.
func (c *construction) reset(n, m int, cfg Config, spare *[]*unionfind.UF) {
	numLv := 1
	for v := 1; v < m; v <<= 1 {
		numLv++
	}
	c.cfg = cfg
	c.n = n
	c.numLv = numLv
	c.hash = xrand.NewPolyHash(xrand.New(cfg.Seed), 2)
	c.ufs = respine(c.ufs, numLv)
	c.stored = respine(c.stored, numLv)
	c.spare = spare
	// Forests are allocated lazily: forest j at level i exists only once
	// some edge was rejected by forests 0..j-1 there. An unallocated
	// forest is semantically a discrete forest (nothing connected), which
	// is exactly the state it would be allocated in.
}

// respine sizes a slice-of-slices spine to n rows, keeping surviving
// rows' backing arrays (retired constructions truncate them to length 0).
func respine[T any](rows [][]T, n int) [][]T {
	for len(rows) < n {
		rows = append(rows, nil)
	}
	return rows[:n]
}

// levelOf returns an edge's geometric subsampling level.
func (c *construction) levelOf(edgeIdx int) int {
	return c.hash.Level(uint64(edgeIdx)+1, c.numLv-1)
}

// process streams one edge through every level it survives to, inserting
// it into the first forest without a cycle (Algorithm 6 steps 5-8), and
// records id, the builder's slot id for the edge, in the stored row of
// every level that keeps it. Reports whether the edge was stored at any
// level, so the builder retains side data for stored edges only.
func (c *construction) process(edgeIdx, id int, u, v int32) bool {
	lv := c.levelOf(edgeIdx)
	storedAny := false
	for i := 0; i <= lv && i < c.numLv; i++ {
		forests := c.ufs[i]
		// Forest j's partition refines forest j-1's (DESIGN.md §17), so
		// endpoints joined in the K-th forest are joined in all K: the
		// edge is rejected here with one test instead of K unions.
		if len(forests) == c.cfg.K && forests[c.cfg.K-1].Same(int(u), int(v)) {
			continue
		}
		placed := false
		for j := 0; j < len(forests); j++ {
			// Union merges exactly when the endpoints were apart, so its
			// result is the Same test without a second pair of Finds.
			if forests[j].Union(int(u), int(v)) {
				c.stored[i] = append(c.stored[i], id)
				placed = true
				break
			}
		}
		if placed {
			storedAny = true
			continue
		}
		if len(forests) < c.cfg.K {
			nf := c.newForest()
			nf.Union(int(u), int(v))
			c.ufs[i] = append(forests, nf)
			c.stored[i] = append(c.stored[i], id)
			storedAny = true
		}
	}
	return storedAny
}

// newForest returns a forest of n singleton sets: the owner's last
// retired one, Reset in place (a Reset forest equals a fresh one), or a
// new one.
func (c *construction) newForest() *unionfind.UF {
	if c.spare != nil {
		if last := len(*c.spare) - 1; last >= 0 {
			uf := (*c.spare)[last]
			*c.spare = (*c.spare)[:last]
			uf.Reset()
			return uf
		}
	}
	return unionfind.New(c.n)
}

// criticalLevel returns i′(e): the smallest level at which the endpoints
// are not connected in the K-th (last) forest structure, i.e. the level
// where the edge's connectivity drops below K. ok=false if the endpoints
// are K-connected at every level (out of levels; treat as not output).
func (c *construction) criticalLevel(u, v int32) (int, bool) {
	for i := 0; i < c.numLv; i++ {
		// Fewer than K forests allocated means no edge ever needed the
		// K-th: the endpoints cannot be K-connected there.
		if len(c.ufs[i]) < c.cfg.K {
			return i, true
		}
		if !c.ufs[i][c.cfg.K-1].Same(int(u), int(v)) {
			return i, true
		}
	}
	return 0, false
}

// withClassSeed gives weight class class a seed of its own, so every
// class's construction draws its own subsampling levels.
func withClassSeed(cfg Config, class int) Config {
	cfg.Seed = xrand.Mix64(cfg.Seed ^ (uint64(class)+1)*0x9e3779b97f4a7c15)
	return cfg
}

// classGuard is the relative band around a power of two inside which
// weightClass defers to math.Log2. Outside it, the mantissa m of
// math.Frexp lies in (0.5(1+classGuard), 1−classGuard), so math.Log2's
// log(m)/ln 2 + e lies more than 1.4e-9 inside (e−1, e), where its
// rounding (under 2.3e-13 for every float64 exponent) cannot reach an
// integer, and its floor is e−1.
const classGuard = 1e-9

// weightClass returns ⌊log₂ x⌋, x's powers-of-two weight class, as
// int(math.Floor(math.Log2(x))) computes it for every positive finite
// float64, subnormals included: from math.Frexp's exponent, and from
// math.Log2 itself within classGuard of a power of two, where its
// rounding can make the floor differ from the exponent. ok is false for
// an x no class holds: zero, negative, NaN or infinite.
func weightClass(x float64) (int, bool) {
	frac, exp := math.Frexp(x)
	if frac > 0.5*(1+classGuard) && frac < 1-classGuard {
		return exp - 1, true
	}
	if !(x > 0) || x > math.MaxFloat64 {
		return 0, false
	}
	return int(math.Floor(math.Log2(x))), true
}
