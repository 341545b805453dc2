package matching

import (
	"math"

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
	return filterCore(s, p, seed, acct, nil)
}

// MaximalBMatchingFilter is the b-matching variant (Lemma 20): choosing
// an edge raises its multiplicity to the residual min{b_u, b_v},
// saturating an endpoint, so the survivor analysis of [25] still applies.
func MaximalBMatchingFilter(s stream.Source, p float64, seed uint64, acct *stream.SpaceAccountant) (*Matching, FilterStats) {
	resid := make([]int, s.N())
	for v := range resid {
		resid[v] = s.B(v)
	}
	return filterCore(s, p, seed, acct, resid)
}

// filterCore runs filtering; resid == nil means all capacities are 1.
func filterCore(s stream.Source, p float64, seed uint64, acct *stream.SpaceAccountant, resid []int) (*Matching, FilterStats) {
	n := float64(s.N())
	budget := int(math.Ceil(math.Pow(n, 1+1/p)))
	if budget < 64 {
		budget = 64
	}
	if resid == nil {
		resid = make([]int, s.N())
		for v := range resid {
			resid[v] = 1
		}
	}
	r := xrand.New(seed)
	out := Matching{Mult: []int{}}
	stats := FilterStats{}
	alive := func(e graph.Edge) bool {
		return resid[e.U] > 0 && resid[e.V] > 0
	}
	for {
		stats.Rounds++
		// Count survivors (one pass).
		survivors := 0
		stream.ForEachBlocks(s, func(_ int, edges []graph.Edge) bool {
			for i := range edges {
				if alive(edges[i]) {
					survivors++
				}
			}
			return true
		})
		stats.EdgesPerRound = append(stats.EdgesPerRound, survivors)
		if survivors == 0 {
			break
		}
		// Sample survivors with probability min(1, budget/survivors)
		// (reservoir-free: one pass with Bernoulli, capped).
		prob := 1.0
		if survivors > budget {
			prob = float64(budget) / float64(survivors)
		}
		type sampled struct {
			idx int
			e   graph.Edge
		}
		var sample []sampled
		// Sequential blocks: the Bernoulli draws happen in edge order, so
		// the sample is identical to the per-edge pass.
		stream.ForEachBlocks(s, func(base int, edges []graph.Edge) bool {
			for i := range edges {
				if alive(edges[i]) && r.Bernoulli(prob) {
					sample = append(sample, sampled{base + i, edges[i]})
				}
			}
			return true
		})
		if acct != nil {
			acct.Alloc(len(sample))
		}
		if len(sample) > stats.PeakSample {
			stats.PeakSample = len(sample)
		}
		// Greedy maximal b-matching on the sample, saturating endpoints.
		added := false
		for _, se := range sample {
			c := resid[se.e.U]
			if resid[se.e.V] < c {
				c = resid[se.e.V]
			}
			if c > 0 {
				resid[se.e.U] -= c
				resid[se.e.V] -= c
				out.EdgeIdx = append(out.EdgeIdx, se.idx)
				out.Mult = append(out.Mult, c)
				added = true
			}
		}
		if acct != nil {
			acct.Free(len(sample))
		}
		if prob >= 1 {
			// The whole residual graph fit in memory: after a maximal
			// pass over it nothing remains addable.
			break
		}
		if !added && len(sample) == 0 {
			// Extremely unlikely: resample next round.
			continue
		}
	}
	stats.FinalResidual = resid
	return &out, stats
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
	n := float64(s.N())
	budget := int(math.Ceil(math.Pow(n, 1+1/p)))
	if budget < 64 {
		budget = 64
	}
	r := xrand.New(seed)
	topClass := int(math.Floor(math.Log2(maxW)))
	// Classes below maxW/n^2 contribute at most maxW/n total per vertex
	// pair; cut off after 2 log2 n + 1 classes.
	minClass := topClass - int(2*math.Log2(n+1)) - 1
	for cl := topClass; cl >= minClass; cl-- {
		lo, hi := math.Exp2(float64(cl)), math.Exp2(float64(cl+1))
		inClass := func(e graph.Edge) bool {
			return e.W >= lo && e.W < hi && resid[e.U] > 0 && resid[e.V] > 0
		}
		for {
			stats.Rounds++
			survivors := 0
			stream.ForEachBlocks(s, func(_ int, edges []graph.Edge) bool {
				for i := range edges {
					if inClass(edges[i]) {
						survivors++
					}
				}
				return true
			})
			if survivors == 0 {
				break
			}
			prob := 1.0
			if survivors > budget {
				prob = float64(budget) / float64(survivors)
			}
			type sampled struct {
				idx int
				e   graph.Edge
			}
			var sample []sampled
			stream.ForEachBlocks(s, func(base int, edges []graph.Edge) bool {
				for i := range edges {
					if inClass(edges[i]) && r.Bernoulli(prob) {
						sample = append(sample, sampled{base + i, edges[i]})
					}
				}
				return true
			})
			if len(sample) > stats.PeakSample {
				stats.PeakSample = len(sample)
			}
			if acct != nil {
				acct.Alloc(len(sample))
			}
			for _, se := range sample {
				c := resid[se.e.U]
				if resid[se.e.V] < c {
					c = resid[se.e.V]
				}
				if c > 0 {
					resid[se.e.U] -= c
					resid[se.e.V] -= c
					out.EdgeIdx = append(out.EdgeIdx, se.idx)
					out.Mult = append(out.Mult, c)
				}
			}
			if acct != nil {
				acct.Free(len(sample))
			}
			if prob >= 1 {
				break
			}
		}
	}
	stats.FinalResidual = resid
	return &out, stats
}
