package matching

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// Iterative filtering — Lattanzi, Moseley, Suri, Vassilvitskii, "Filtering:
// a method for solving graph problems in MapReduce" (SPAA 2011), the
// paper's baseline [25] and the engine of Lemma 20's maximal b-matching.
//
// Unweighted maximal matching: repeatedly sample ~n^(1+1/p) of the
// surviving edges, compute a maximal matching of the sample greedily, and
// delete all edges with a saturated endpoint; Lemma 19 guarantees the
// survivor count drops by ~n^(1/p) per round, so O(p) rounds suffice.
// Weighted: process powers-of-two weight classes from heaviest to
// lightest, matching free vertices per class — an O(1)-approximation.

// FilterStats reports the resource usage of a filtering run.
type FilterStats struct {
	Rounds        int   // sampling rounds (adaptive accesses to the input)
	PeakSample    int   // largest sample held centrally
	EdgesPerRound []int // surviving edges at the start of each round
	// FinalResidual is the per-vertex residual capacity at termination:
	// b_v minus the matched degree. A zero entry marks a saturated
	// vertex (the quantity Lemma 21's initial assignment needs), exposed
	// here so streaming callers need no random access to recompute
	// degrees from the matching.
	FinalResidual []int
}

// MaximalMatchingFilter computes a maximal matching of the stream using
// memory budget ~ n^(1+1/p) edges. It mirrors the paper's accounting: one
// round per sampling pass. acct may be nil.
func MaximalMatchingFilter(s stream.Source, p float64, seed uint64, acct *stream.SpaceAccountant) (*Matching, FilterStats) {
	resid := make([]int, s.N())
	for v := range resid {
		resid[v] = 1
	}
	c := &filterClass{r: xrand.New(seed), resid: resid, out: Matching{Mult: []int{}}}
	filterCore(meteredSweep(s), filterBudget(s.N(), p), func(graph.Edge) int { return 0 }, []*filterClass{c}, acct)
	return &c.out, c.stats
}

// MaximalBMatchingFilter runs Lemma 20's maximal b-matching filter on
// every class of the stream's edges at once: classOf returns an edge's
// class in [0, len(seeds)), or a negative value for an edge in none.
// Class c's filter sees only its own edges, draws from xrand.New(seeds[c])
// and starts from the capacities s.B(v); choosing an edge raises its
// multiplicity to the residual min{b_u, b_v}, saturating an endpoint, so
// the survivor analysis of [25] still applies. A round is one count
// sweep and one sample sweep that every class still running shares, so
// each class's matching and stats are the ones it would get alone. The
// sweeps charge s no pass: in the paper's accounting each class runs on
// its own machine, and the caller accounts for the rounds and the peak
// samples the stats report.
func MaximalBMatchingFilter(s stream.Source, p float64, seeds []uint64, classOf func(e graph.Edge) int) ([]*Matching, []FilterStats) {
	classes := make([]*filterClass, len(seeds))
	for c, seed := range seeds {
		resid := make([]int, s.N())
		for v := range resid {
			resid[v] = s.B(v)
		}
		classes[c] = &filterClass{r: xrand.New(seed), resid: resid, out: Matching{Mult: []int{}}}
	}
	sweep := func(f func(base int, edges []graph.Edge) bool) {
		//lint:unmetered each class's filter runs on its own machine (Lemma 20); the caller accounts for its rounds
		stream.SweepBlocks(s, f)
	}
	filterCore(sweep, filterBudget(s.N(), p), classOf, classes, nil)
	ms := make([]*Matching, len(classes))
	stats := make([]FilterStats, len(classes))
	for c, fc := range classes {
		ms[c], stats[c] = &fc.out, fc.stats
	}
	return ms, stats
}

// meteredSweep is a sequential block pass over s that charges one pass.
func meteredSweep(s stream.Source) func(f func(base int, edges []graph.Edge) bool) {
	return func(f func(base int, edges []graph.Edge) bool) { stream.ForEachBlocks(s, f) }
}

// filterBudget is the sample budget ~n^(1+1/p), at least 64 edges.
func filterBudget(n int, p float64) int {
	return max(int(math.Ceil(math.Pow(float64(n), 1+1/p))), 64)
}

// filterClass is one of filterCore's independent filters: its own
// randomness, residual capacities, matching, stats and round state.
type filterClass struct {
	r     *xrand.RNG
	resid []int
	out   Matching
	stats FilterStats

	survivors int
	prob      float64
	sample    []sampledEdge
}

type sampledEdge struct {
	idx int
	e   graph.Edge
}

func (c *filterClass) alive(e graph.Edge) bool {
	return c.resid[e.U] > 0 && c.resid[e.V] > 0
}

// filterCore runs iterative filtering for every class at once, over
// sweeps of one stream: classOf names an edge's class (an index into
// classes, negative for none). A class's round counts its surviving
// edges, stops when none survive, samples each survivor with probability
// min(1, budget/survivors), matches the sample greedily, and stops when
// the whole residual graph was sampled. The classes still running share
// each round's count sweep and sample sweep; each class's draws happen
// in edge order, so every class computes what it would alone. Each
// class's sample is charged to acct (nil: none) in class order while it
// is matched.
func filterCore(sweep func(f func(base int, edges []graph.Edge) bool), budget int,
	classOf func(e graph.Edge) int, classes []*filterClass, acct *stream.SpaceAccountant) {
	// A finished class has no surviving edge (none was left, or its
	// whole residual graph was matched maximally), so only the classes
	// still running read a sweep.
	reader := func(e graph.Edge) *filterClass {
		if k := classOf(e); k >= 0 && classes[k].alive(e) {
			return classes[k]
		}
		return nil
	}
	running := append([]*filterClass(nil), classes...)
	for len(running) > 0 {
		for _, c := range running {
			c.stats.Rounds++
			c.survivors = 0
		}
		// Count survivors (one pass).
		sweep(func(_ int, edges []graph.Edge) bool {
			for i := range edges {
				if c := reader(edges[i]); c != nil {
					c.survivors++
				}
			}
			return true
		})
		sampling := running[:0]
		for _, c := range running {
			c.stats.EdgesPerRound = append(c.stats.EdgesPerRound, c.survivors)
			if c.survivors == 0 {
				continue
			}
			c.prob = 1.0
			if c.survivors > budget {
				c.prob = float64(budget) / float64(c.survivors)
			}
			// The sample holds about min(survivors, budget) edges:
			// grow it to that once rather than by appends.
			c.sample = slices.Grow(c.sample[:0], min(c.survivors, budget))
			sampling = append(sampling, c)
		}
		if len(sampling) == 0 {
			break
		}
		// Sample survivors with probability prob (reservoir-free: one
		// pass with Bernoulli, capped). Sequential blocks: the draws
		// happen in edge order.
		sweep(func(base int, edges []graph.Edge) bool {
			for i := range edges {
				if c := reader(edges[i]); c != nil && c.r.Bernoulli(c.prob) {
					c.sample = append(c.sample, sampledEdge{base + i, edges[i]})
				}
			}
			return true
		})
		running = sampling[:0]
		for _, c := range sampling {
			c.matchSample(acct)
			if c.prob >= 1 {
				// The whole residual graph fit in memory: after a
				// maximal pass over it nothing remains addable.
				continue
			}
			running = append(running, c)
		}
	}
	for _, c := range classes {
		c.stats.FinalResidual = c.resid
	}
}

// matchSample adds the sample's edges greedily, each at the residual
// multiplicity min{resid_u, resid_v}, saturating an endpoint.
func (c *filterClass) matchSample(acct *stream.SpaceAccountant) {
	if acct != nil {
		acct.Alloc(len(c.sample))
	}
	c.stats.PeakSample = max(c.stats.PeakSample, len(c.sample))
	for _, se := range c.sample {
		if m := min(c.resid[se.e.U], c.resid[se.e.V]); m > 0 {
			c.resid[se.e.U] -= m
			c.resid[se.e.V] -= m
			c.out.EdgeIdx = append(c.out.EdgeIdx, se.idx)
			c.out.Mult = append(c.out.Mult, m)
		}
	}
	if acct != nil {
		acct.Free(len(c.sample))
	}
}

// WeightedFilter computes an O(1)-approximate weighted matching in the
// style of [25]: edges are bucketed into powers-of-two weight classes and
// classes are processed from heaviest to lightest, each with the
// unweighted filtering routine restricted to still-free capacity.
func WeightedFilter(s stream.Source, p float64, seed uint64, acct *stream.SpaceAccountant) (*Matching, FilterStats) {
	maxW := 0.0
	stream.ForEachBlocks(s, func(_ int, edges []graph.Edge) bool {
		for i := range edges {
			if edges[i].W > maxW {
				maxW = edges[i].W
			}
		}
		return true
	})
	stats := FilterStats{Rounds: 1} // the max-weight pass
	out := Matching{Mult: []int{}}
	resid := make([]int, s.N())
	for v := range resid {
		resid[v] = s.B(v)
	}
	if maxW == 0 {
		stats.FinalResidual = resid
		return &out, stats
	}
	budget := filterBudget(s.N(), p)
	r := xrand.New(seed)
	topClass := int(math.Floor(math.Log2(maxW)))
	// Classes below maxW/n^2 contribute at most maxW/n total per vertex
	// pair; cut off after 2 log2 n + 1 classes.
	minClass := topClass - int(2*math.Log2(float64(s.N())+1)) - 1
	for cl := topClass; cl >= minClass; cl-- {
		// Each class is one filter over the shared randomness and the
		// capacities the heavier classes left.
		lo, hi := math.Exp2(float64(cl)), math.Exp2(float64(cl+1))
		c := &filterClass{r: r, resid: resid}
		filterCore(meteredSweep(s), budget, func(e graph.Edge) int {
			if e.W >= lo && e.W < hi {
				return 0
			}
			return -1
		}, []*filterClass{c}, acct)
		stats.Rounds += c.stats.Rounds
		stats.PeakSample = max(stats.PeakSample, c.stats.PeakSample)
		out.EdgeIdx = append(out.EdgeIdx, c.out.EdgeIdx...)
		out.Mult = append(out.Mult, c.out.Mult...)
	}
	stats.FinalResidual = resid
	return &out, stats
}
