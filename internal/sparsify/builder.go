package sparsify

import (
	"fmt"
	"slices"

	"repro/internal/unionfind"
)

// DeferredBuilder is the construction of the deferred cut-sparsifier:
// edges arrive one at a time with their promise value ς and are pushed
// straight through the per-class leveled forest constructions, so the
// builder's memory is the stored sample plus the forest state — never
// the edge sequence itself. The solver runs its sampling round as one
// chunked pass over a Source this way, without materializing promise or
// endpoint arrays; NewDeferred feeds it from arrays.
//
// The builder also records each stored edge's original stream index and
// weight, so the resulting Items carry enough to drive refinement and
// the offline union step with no random access back into the input.
type DeferredBuilder struct {
	n, m int
	cfg  Config // defaults and chi² oversampling already applied
	// byClass[i] is the construction of weight class classLo+i (nil
	// while no edge of the class has arrived), so Finish walks the
	// classes in increasing order without sorting them.
	byClass []*construction
	classLo int
	// slots is the side data of the stored edges, append-only in
	// storage order: the constructions' stored rows hold slot ids, so
	// Finish reaches an edge's side data — and its local index, which
	// levelOf hashes — by position rather than through a map.
	slots []builderEdge
	// Reuse across feeds: Finish retires each class's construction
	// shell (spines and stored rows) to shells and its forests over n
	// vertices to forests, which the next feed's classes draw from; d
	// is the structure Finish emits, its buffers reused by the next
	// Finish and RefineWith.
	shells  []*construction
	forests []*unionfind.UF
	d       Deferred
}

// builderEdge is the per-stored-edge side data the construction core does
// not keep. done is Finish's dedup mark (an edge is stored at up to one
// forest per level but emitted once).
type builderEdge struct {
	u, v     int32
	done     bool
	localIdx int
	w        float64
	orig     int
	sigma    float64
}

// Reset arms a builder (a zero DeferredBuilder or one already used) for
// a streaming deferred construction over a local edge sequence of length
// m (the count must be known up front: it fixes the subsampling depth);
// chi >= 1 is the promised distortion bound. A reused builder keeps its
// slot buffer's and class table's capacity, its retired constructions
// and, while n stays the same, their forests: a caller that runs one
// construction per job per round (the solver's sampling pass) holds one
// builder per job and stops reallocating every round. A builder left
// mid-feed (an aborted pass) retires its unfinished constructions here,
// so the next feed starts from empty forests either way.
func (b *DeferredBuilder) Reset(n, m int, chi float64, cfg Config) error {
	if chi < 1 {
		return fmt.Errorf("sparsify: chi %v < 1", chi)
	}
	if m < 0 {
		return fmt.Errorf("sparsify: negative edge count %d", m)
	}
	b.retire()
	if n != b.n {
		b.forests = nil // sized for another vertex count
	}
	b.n, b.m = n, m
	b.cfg = deferredConfig(n, chi, cfg)
	b.slots = b.slots[:0]
	return nil
}

// Add streams one edge into the construction. localIdx must be the edge's
// position in the builder's own sequence (0..m-1, strictly increasing
// across calls — it drives the subsampling hash); orig is its index in
// the original stream and w its original weight, both retained only for
// stored edges. Edges whose sigma has no weight class (zero, negative,
// NaN or infinite) carry no cut mass and are dropped.
func (b *DeferredBuilder) Add(localIdx int, u, v int32, w float64, orig int, sigma float64) {
	cl, ok := weightClass(sigma)
	if !ok {
		return
	}
	if c := b.classConstruction(cl); c.process(localIdx, len(b.slots), u, v) {
		b.slots = append(b.slots, builderEdge{u: u, v: v, localIdx: localIdx, w: w, orig: orig, sigma: sigma})
	}
}

// classConstruction returns class cl's construction, widening byClass
// to reach cl and creating the construction on the class's first edge.
func (b *DeferredBuilder) classConstruction(cl int) *construction {
	i := cl - b.classLo
	switch {
	case len(b.byClass) == 0:
		b.byClass = append(b.byClass, nil)
		b.classLo, i = cl, 0
	case i < 0:
		b.byClass = slices.Insert(b.byClass, 0, make([]*construction, -i)...)
		b.classLo, i = cl, 0
	}
	for i >= len(b.byClass) {
		b.byClass = append(b.byClass, nil)
	}
	c := b.byClass[i]
	if c == nil {
		c = b.shell(cl)
		c.reset(b.n, b.m, withClassSeed(b.cfg, cl), &b.forests)
		b.byClass[i] = c
	}
	return c
}

// shell takes a retired construction shell for class cl: the class's
// own from an earlier feed when there is one, whose rows already fit
// the class, else the last one retired, else a new one.
func (b *DeferredBuilder) shell(cl int) *construction {
	j := slices.IndexFunc(b.shells, func(c *construction) bool { return c.class == cl })
	if j < 0 {
		j = len(b.shells) - 1
	}
	if j < 0 {
		return &construction{class: cl}
	}
	c := b.shells[j]
	b.shells = slices.Delete(b.shells, j, j+1)
	c.class = cl
	return c
}

// retire empties byClass into the builder's lists: each construction's
// forests to forests and its shell, rows truncated, to shells.
func (b *DeferredBuilder) retire() {
	for _, c := range b.byClass {
		if c == nil {
			continue
		}
		for i, row := range c.ufs {
			b.forests = append(b.forests, row...)
			clear(row)
			c.ufs[i] = row[:0]
		}
		for i := range c.stored {
			c.stored[i] = c.stored[i][:0]
		}
		b.shells = append(b.shells, c)
	}
	clear(b.byClass)
	b.byClass = b.byClass[:0]
}

// Finish emits the Deferred (Algorithm 6 steps 10-15): an edge is output
// iff its own subsampling level reaches its critical level i′, with
// retention probability 2^(−i′). An edge whose subsampling level reaches
// i′ necessarily entered a forest at level i′ (its endpoints are not
// K-connected there), so the stored set always contains every output
// candidate and the inverse-probability estimator is unbiased. The
// per-class item streams concatenate in increasing class order. The
// Deferred carries only its Items and needs no forest state, so Finish
// retires every construction for the next feed. The returned structure
// is the builder's own: it is valid until the builder's next Finish or
// Reset. The builder must not be fed again until Reset.
func (b *DeferredBuilder) Finish() *Deferred {
	d := &b.d
	d.n = b.n
	d.items = d.items[:0]
	for _, sub := range b.byClass {
		if sub == nil {
			continue
		}
		// A slot belongs to one class, so one mark per slot dedups
		// within each class exactly as a fresh per-class set would.
		for i := 0; i < sub.numLv; i++ {
			for _, id := range sub.stored[i] {
				e := &b.slots[id]
				if e.done {
					continue
				}
				e.done = true
				ipLv, ok := sub.criticalLevel(e.u, e.v)
				if !ok {
					continue
				}
				if sub.levelOf(e.localIdx) < ipLv {
					continue
				}
				d.items = append(d.items, Item{
					EdgeIdx: e.localIdx,
					Orig:    e.orig,
					U:       e.u,
					V:       e.v,
					W:       e.w,
					Weight:  e.sigma, // provisional; replaced on Refine
					Prob:    retentionProb(ipLv),
				})
			}
		}
	}
	b.retire()
	b.slots = b.slots[:0]
	return d
}
