package algos

import (
	"context"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/semistream"
	"repro/internal/stream"
)

// defaultAugmentRounds is how many length-3 augmentation rounds the
// greedy-augment algorithm runs when Options.MaxRounds is 0: enough for
// the 2/3-cardinality convergence to flatten on every test family while
// staying a few-pass algorithm.
const defaultAugmentRounds = 8

// greedyAlg is the semi-streaming greedy baseline on the engine driver:
// round 1 is the classic one-pass maximal matching (1/2-approximation
// for cardinality), and with augmentRounds > 0 each further round is one
// semistream.AugmentRound — two metered passes resolving vertex-disjoint
// length-3 augmenting paths, converging toward 2/3 of maximum
// cardinality. State is the semi-streaming budget: O(n) words, charged
// to the accountant.
type greedyAlg struct {
	augmentRounds int // 0 = plain one-pass greedy
	src           stream.Source
	n             int
	st            *semistream.GreedyState
	cur           []int                     // sorted matched edge indices once augmenting
	bits          []bool                    // session-retained matched-vertex buffer
	aug           semistream.AugmentScratch // session-retained augmentation state
	weight        float64
	earlyStopped  bool
}

// Init charges the O(n) matched-vertex state; the stream is read only
// inside rounds.
func (a *greedyAlg) Init(_ context.Context, run *engine.Run, src stream.Source) error {
	a.src = src
	a.n = src.N()
	run.Acct.Alloc(a.n)
	return nil
}

// Reset clears the per-run state for instance reuse. The matched-vertex
// bit buffer and the augmentation scratch are retained, and so is
// augmentRounds (the table entry's configuration); the greedy state and
// its edge list are not — the previous run's Outcome owns the matching
// — and cur, which points into the scratch, is dropped.
func (a *greedyAlg) Reset() {
	a.src = nil
	a.n = 0
	a.st = nil
	a.cur = nil
	a.weight = 0
	a.earlyStopped = false
}

// Round runs the greedy pass first, then one augmentation round per
// driver round until no augmenting path is found or the cap is reached.
func (a *greedyAlg) Round(ctx context.Context, run *engine.Run) (bool, error) {
	round := run.Rounds()
	if round == 0 {
		if err := run.BeginRound(); err != nil {
			return false, err
		}
		a.st, a.bits = semistream.NewGreedyStateIn(a.n, a.bits)
		stream.ForEachBlocks(a.src, func(base int, edges []graph.Edge) bool {
			for i := range edges {
				a.st.Offer(base+i, edges[i])
			}
			return true
		})
		a.weight = a.st.Weight()
		if err := run.Check(); err != nil {
			return false, err
		}
		if a.augmentRounds == 0 {
			a.earlyStopped = true
			return true, nil
		}
		a.cur = a.st.Matching().EdgeIdx // stream order: ascending
		return false, nil
	}
	if round > a.augmentRounds {
		return true, nil
	}
	if err := run.BeginRound(); err != nil {
		return false, err
	}
	// The round's transient index structures (matchPos, freeTaken) are
	// O(n) central words on top of the live matching state.
	run.Acct.Alloc(2 * a.n)
	next, augmented, delta := semistream.AugmentRound(ctx, a.src, a.cur, &a.aug)
	a.cur = next
	run.Acct.Free(2 * a.n)
	a.weight += delta
	if err := run.Check(); err != nil {
		return false, err
	}
	if !augmented {
		a.earlyStopped = true
		return true, nil
	}
	return false, nil
}

// Finish reports the current matched set — feasible at every point, so
// budget trips and cancellations hand back whatever the rounds so far
// built. An augmented set is copied out of the scratch the next run
// reuses; an empty one is the greedy state's own (nil) edge list.
func (a *greedyAlg) Finish(_ *engine.Run) (*matching.Matching, engine.Extras) {
	var m *matching.Matching
	switch {
	case len(a.cur) > 0:
		m = &matching.Matching{EdgeIdx: slices.Clone(a.cur)}
	case a.st != nil:
		m = a.st.Matching()
	}
	return m, engine.Extras{Weight: a.weight, Stats: engine.Stats{EarlyStopped: a.earlyStopped}}
}
