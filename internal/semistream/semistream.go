// Package semistream implements the one-pass and few-pass matching
// rules the paper positions itself against in the semi-streaming model
// (Related Work: Feigenbaum et al. [16], McGregor [29], Zelke [39]):
//
//   - GreedyState: one-pass greedy maximal matching, the classic
//     1/2-approximation for cardinality ([16]), fed one stream edge at
//     a time;
//   - OnePassReplace: McGregor's one-pass weighted algorithm — a new edge
//     evicts its (at most two) conflicting matched edges when it is
//     (1+γ) times heavier than their sum; 1/(3+2√2)-approximation at the
//     optimal γ = √2, 1/6 at γ = 1 ([29], improving [16]);
//   - AugmentRound: one round of two passes that resolves length-3
//     augmenting paths; repeated, it lifts a maximal matching toward 2/3
//     of maximum cardinality (the engine inside McGregor's (1-ε)
//     multi-pass scheme, truncated to length-3 augmentations).
//
// The engine's greedy and greedy-augment algorithms (internal/algos)
// drive GreedyState and AugmentRound round by round. Everything here
// consumes a stream.Source, so pass counts are measured and any backend
// (in-memory, file, generator) can serve the stream, and holds only
// O(n) matching state — the semi-streaming budget.
package semistream

import (
	"context"
	"slices"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/stream"
)

// GreedyState is the O(n) incremental state of one-pass greedy maximal
// matching: Offer every edge in stream order and the matched set is
// maximal when the stream ends. The engine-driven greedy algorithm
// feeds it edge by edge and reads the running weight without a second
// pass.
type GreedyState struct {
	used   []bool
	m      *matching.Matching
	weight float64
}

// NewGreedyStateIn returns empty greedy state over n vertices, reusing
// buf for the matched-vertex bits when it is large enough (it is zeroed
// either way; a nil buf allocates). The matched edge list is always
// fresh — callers hand it out as a result, so it must never be
// recycled — while the O(n) bit table, the state's dominant allocation
// and its only reusable one, carries over between the greedy passes of
// a reused instance. Returns the state and the (possibly grown) buffer
// for the caller to retain.
func NewGreedyStateIn(n int, buf []bool) (*GreedyState, []bool) {
	if cap(buf) >= n {
		buf = buf[:n]
		clear(buf)
	} else {
		buf = make([]bool, n)
	}
	return &GreedyState{used: buf, m: &matching.Matching{}}, buf
}

// Offer considers one stream edge and reports whether it was taken
// (both endpoints free). The first edge taken sizes the matched list to
// a matching's n/2 edges, so it never grows, and an empty matching keeps
// its nil list.
func (g *GreedyState) Offer(idx int, e graph.Edge) bool {
	if g.used[e.U] || g.used[e.V] {
		return false
	}
	g.used[e.U], g.used[e.V] = true, true
	if g.m.EdgeIdx == nil {
		g.m.EdgeIdx = make([]int, 0, len(g.used)/2)
	}
	g.m.EdgeIdx = append(g.m.EdgeIdx, idx)
	g.weight += e.W
	return true
}

// Matching returns the matched set built so far (live, not a copy).
func (g *GreedyState) Matching() *matching.Matching { return g.m }

// Weight returns the total weight of the matched set so far.
func (g *GreedyState) Weight() float64 { return g.weight }

// OnePassReplace runs McGregor's replacement algorithm with parameter
// gamma > 0: edge e replaces its conflicting matched edges C(e) when
// w(e) >= (1+gamma)·w(C(e)).
func OnePassReplace(s stream.Source, gamma float64) *matching.Matching {
	n := s.N()
	matchEdge := make([]int, n) // edge index matched at v, or -1
	mate := make([]int32, n)    // the other endpoint of v's matched edge
	weightAt := make([]float64, n)
	for i := range matchEdge {
		matchEdge[i] = -1
	}
	stream.ForEachBlocks(s, func(base int, edges []graph.Edge) bool {
		for i := range edges {
			offerReplace(base+i, edges[i], matchEdge, mate, weightAt, gamma)
		}
		return true
	})
	out := &matching.Matching{}
	for v, idx := range matchEdge {
		if idx >= 0 && int32(v) < mate[v] {
			out.EdgeIdx = append(out.EdgeIdx, idx)
		}
	}
	slices.Sort(out.EdgeIdx)
	return out
}

// offerReplace applies one edge of McGregor's replacement rule. An
// evicted edge is unmatched at both its endpoints: the vertex it shares
// with e and that vertex's mate.
func offerReplace(idx int, e graph.Edge, matchEdge []int, mate []int32, weightAt []float64, gamma float64) {
	cu, cv := matchEdge[e.U], matchEdge[e.V]
	conflict := 0.0
	if cu >= 0 {
		conflict += weightAt[e.U]
	}
	if cv >= 0 && cv != cu {
		conflict += weightAt[e.V]
	}
	if e.W >= (1+gamma)*conflict {
		if cu >= 0 {
			matchEdge[e.U], matchEdge[mate[e.U]] = -1, -1
		}
		if cv >= 0 && cv != cu {
			matchEdge[e.V], matchEdge[mate[e.V]] = -1, -1
		}
		matchEdge[e.U], matchEdge[e.V] = idx, idx
		mate[e.U], mate[e.V] = e.V, e.U
		weightAt[e.U], weightAt[e.V] = e.W, e.W
	}
}

// AugmentScratch is AugmentRound's O(n) state, which its caller keeps
// across rounds (and a session's runs) so that a round allocates
// nothing once the buffers have grown: per vertex, the position of its
// matched edge in the round's sorted matched set and whether it was
// used as a free end; per position, the matched edge and its candidate
// wings; the round's new wing edges; and the two index slices that
// successive rounds return in turn.
type AugmentScratch struct {
	matchPos  []int32 // vertex → position of its matched edge in cur, or -1
	freeTaken []bool
	wings     []wings // position → matched edge and candidate wings
	added     []int
	sets      [2][]int
	flip      int
}

// wings is one matched edge's candidate length-3 augmentation: a wing
// edge from a free vertex at each endpoint.
type wings struct {
	matched      graph.Edge
	uWing, vWing int // edge indices, -1 if none
	uFree, vFree int32
	uW, vW       float64
	applied      bool // replaced by its wings this round
}

// AugmentRound performs one round of length-3 augmentation over the
// matched edge indices cur, sorted ascending, and returns the new
// sorted set: two metered passes (one to locate the matched edges, one
// to collect candidate wings), then a deterministic vertex-disjoint
// resolution. It also reports whether any augmenting path was applied
// and the total matching-weight delta of the applied augmentations.
// The returned slice belongs to sc: the next round may read it as its
// cur, and the round after that overwrites it. cur itself is only
// read. The engine-driven greedy-augment algorithm runs one such round
// per driver round.
//
// ctx is checked after each pass. When it is done, the round stops
// there and returns cur unchanged, with no augmentation and a zero
// delta, so a cancelled round's result does not depend on how far its
// pass read.
//
// All state is addressed by vertex or by position in cur: a sequential
// sweep delivers blocks in index order, so pass 1 walks cur with a
// cursor, and resolution walks positions in order, which is ascending
// edge index.
func AugmentRound(ctx context.Context, s stream.Source, cur []int, sc *AugmentScratch) ([]int, bool, float64) {
	n := s.N()
	sc.matchPos = resize(sc.matchPos, n, n)
	for i := range sc.matchPos {
		sc.matchPos[i] = -1
	}
	sc.freeTaken = resize(sc.freeTaken, n, n)
	clear(sc.freeTaken)
	// A matching on n vertices has at most n/2 edges, so the
	// per-position state and the sets are sized once for the rounds
	// that grow cur.
	sc.wings = resize(sc.wings, len(cur), n/2)
	matchPos, ws := sc.matchPos, sc.wings
	// Pass 1: locate the matched edges. A pass that ends early (a
	// cancelled sweep) locates a prefix of cur.
	located := 0
	stream.ForEachBlocks(s, func(base int, edges []graph.Edge) bool {
		for end := base + len(edges); located < len(cur) && cur[located] < end; located++ {
			ws[located] = wings{uWing: -1, vWing: -1}
			if cur[located] < base {
				continue // an index the sweep never delivered
			}
			e := edges[cur[located]-base]
			matchPos[e.U], matchPos[e.V] = int32(located), int32(located)
			ws[located].matched = e
		}
		return true
	})
	if ctx.Err() != nil {
		return cur, false, 0
	}
	// Pass 2: collect, per matched edge, one candidate wing at each
	// endpoint: wing edges go from a free vertex to a matched endpoint.
	// A matched edge has both endpoints matched (a matching is
	// vertex-disjoint and graph rejects self loops), so the both-matched
	// skip passes over it.
	stream.ForEachBlocks(s, func(base int, edges []graph.Edge) bool {
		for i := range edges {
			e := &edges[i]
			pu, pv := matchPos[e.U], matchPos[e.V]
			if (pu < 0) == (pv < 0) {
				continue // both free (matching not maximal) or both matched
			}
			free, anchored, p := e.U, e.V, pv
			if pv < 0 {
				free, anchored, p = e.V, e.U, pu
			}
			w := &ws[p]
			if anchored == w.matched.U && w.uWing == -1 {
				w.uWing, w.uFree, w.uW = base+i, free, e.W
			} else if anchored == w.matched.V && w.vWing == -1 {
				w.vWing, w.vFree, w.vW = base+i, free, e.W
			}
		}
		return true
	})
	if ctx.Err() != nil {
		return cur, false, 0
	}
	// Resolve: an augmenting path needs wings at both endpoints with
	// distinct free vertices not already used this round. Matched edges
	// are visited in position order, which is ascending index order.
	augmented := false
	delta := 0.0
	added := sc.added[:0]
	for p := range ws[:located] {
		w := &ws[p]
		if w.uWing == -1 || w.vWing == -1 || w.uFree == w.vFree {
			continue
		}
		if sc.freeTaken[w.uFree] || sc.freeTaken[w.vFree] {
			continue
		}
		sc.freeTaken[w.uFree] = true
		sc.freeTaken[w.vFree] = true
		w.applied = true
		added = append(added, w.uWing, w.vWing)
		delta += w.uW + w.vW - w.matched.W
		augmented = true
	}
	// The new set: cur without the applied matched edges, merged with
	// the sorted wings that replace them.
	slices.Sort(added)
	next, j := slices.Grow(sc.sets[sc.flip][:0], max(len(cur)+len(added)/2, n/2)), 0
	for p, idx := range cur {
		if p < located && ws[p].applied {
			continue
		}
		for ; j < len(added) && added[j] < idx; j++ {
			next = append(next, added[j])
		}
		next = append(next, idx)
	}
	next = append(next, added[j:]...)
	sc.added, sc.sets[sc.flip] = added, next
	sc.flip ^= 1
	return next, augmented, delta
}

// resize returns buf with length n, reallocating with capacity
// max(n, hint) only when its capacity is short; the contents are the
// caller's to initialize.
func resize[T any](buf []T, n, hint int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, hint))
	}
	return buf[:n]
}
