package sparsify

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// The digests of TestConstructionsPinned. They were recorded while
// NewDeferred and the weighted sparsifier still ran a class-parallel
// construction of their own beside DeferredBuilder.
const (
	deferredPinDigest = "03582b6e141fa481"
	weightedPinDigest = "0cec072955c34b9d"
)

// pinInstance draws one instance of the construction pin: a multigraph
// on 2–60 vertices with up to 24 edges per vertex, its weights uniform
// on [1, 31) or exponential with mean 4; promises spread over one to
// three weight classes from 1 up, with 5% zeros; true weights within a
// factor χ of their promises, 3% revealed as zero; χ ∈ {1, 1.5, 2, 4},
// ξ ∈ {0.25, 0.5} and K from 0 (the default) to 5.
func pinInstance(r *xrand.RNG) (g *graph.Graph, sigma, u []float64, chi float64, cfg Config) {
	n := 2 + r.Intn(59)
	m := r.Intn(24*n + 1)
	expWeights := r.Bernoulli(0.5)
	g = graph.New(n)
	for i := 0; i < m; i++ {
		a, b := r.Intn(n), r.Intn(n-1)
		if b >= a {
			b++
		}
		w := 1 + 30*r.Float64()
		if expWeights {
			w = 4*r.Exp() + 1e-9
		}
		g.MustAddEdge(a, b, w)
	}
	chi = []float64{1, 1.5, 2, 4}[r.Intn(4)]
	classes := float64(1 + r.Intn(3))
	sigma = make([]float64, m)
	u = make([]float64, m)
	for i := range sigma {
		if r.Bernoulli(0.05) {
			continue
		}
		sigma[i] = math.Exp2(classes * r.Float64())
		if !r.Bernoulli(0.03) {
			u[i] = sigma[i] * math.Pow(chi, 2*r.Float64()-1)
		}
	}
	cfg = Config{K: r.Intn(6), Xi: []float64{0.25, 0.5}[r.Intn(2)], Seed: r.Uint64()}
	return g, sigma, u, chi, cfg
}

// writeItems folds a list of items into h: its length, then every field
// of every item, floats by their bits.
func writeItems(h hash.Hash64, items []Item) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(len(items)))
	for _, it := range items {
		put(uint64(it.EdgeIdx))
		put(uint64(it.Orig))
		put(uint64(it.U))
		put(uint64(it.V))
		put(math.Float64bits(it.W))
		put(math.Float64bits(it.Weight))
		put(math.Float64bits(it.Prob))
	}
}

// TestConstructionsPinned pins every construction the package offers on
// random instances: NewDeferred's items and their refinement by the
// true weights, and the weighted sparsifier of graphSparsifier. A
// refinement sharded over 2, 4 and GOMAXPROCS workers must equal the
// sequential one. The instances must sample (some item kept with
// probability below 1) and span several weight classes, so a change in
// the construction's levels or in the order classes are emitted in
// moves a digest.
func TestConstructionsPinned(t *testing.T) {
	const cases = 48
	r := xrand.New(0x5ba751f)
	deferred, weighted := fnv.New64a(), fnv.New64a()
	stored, multiClass, deferredSampling, weightedSampling := 0, 0, 0, 0
	for c := 0; c < cases; c++ {
		g, sigma, u, chi, cfg := pinInstance(r)
		d, err := NewDeferred(g.N(), func(i int) (int32, int32) {
			e := g.Edge(i)
			return e.U, e.V
		}, g.M(), sigma, chi, cfg)
		if err != nil {
			t.Fatal(err)
		}
		writeItems(deferred, d.Items())
		stored += d.Size()
		classes := map[int]bool{}
		for _, it := range d.Items() {
			cl, _ := weightClass(it.Weight)
			classes[cl] = true
		}
		if len(classes) > 1 {
			multiClass++
		}
		if samples(d.Items()) {
			deferredSampling++
		}
		refined := fnv.New64a()
		writeItems(refined, d.Refine(func(i int) float64 { return u[i] }).Items)
		for _, workers := range []int{2, 4, 0} {
			h := fnv.New64a()
			writeItems(h, d.RefineWith(workers, func(it Item) float64 { return u[it.EdgeIdx] }).Items)
			if h.Sum64() != refined.Sum64() {
				t.Fatalf("case %d: the refinement over %d workers differs from the sequential one", c, workers)
			}
		}
		deferred.Write(refined.Sum(nil))

		sp := graphSparsifier(g, cfg)
		writeItems(weighted, sp.Items)
		if samples(sp.Items) {
			weightedSampling++
		}
	}
	t.Logf("%d cases: %d stored items; %d span several promise classes; NewDeferred samples in %d, the weighted sparsifier in %d",
		cases, stored, multiClass, deferredSampling, weightedSampling)
	if multiClass < cases/2 || deferredSampling < cases/4 || weightedSampling < cases/4 {
		t.Fatalf("of %d cases, %d span several classes, NewDeferred samples in %d and the weighted sparsifier in %d: too few to pin the construction",
			cases, multiClass, deferredSampling, weightedSampling)
	}
	if got := fmt.Sprintf("%016x", deferred.Sum64()); got != deferredPinDigest {
		t.Errorf("NewDeferred digest %s, pinned %s", got, deferredPinDigest)
	}
	if got := fmt.Sprintf("%016x", weighted.Sum64()); got != weightedPinDigest {
		t.Errorf("weighted sparsifier digest %s, pinned %s", got, weightedPinDigest)
	}
}

// samples reports whether some item was kept with probability below 1.
func samples(items []Item) bool {
	for _, it := range items {
		if it.Prob < 1 {
			return true
		}
	}
	return false
}
