package sparsify

import (
	"fmt"
	"math"
	"sort"
)

// DeferredBuilder is the streaming construction of the deferred
// cut-sparsifier: edges arrive one at a time with their promise value ς
// and are pushed straight through the per-class leveled forest
// constructions, so the builder's memory is the stored sample plus the
// forest state — never the edge sequence itself. Feeding the builder the
// same (localIdx, u, v, ς) sequence that NewDeferred receives via its
// arrays produces a bit-identical Deferred (same per-class seeds, same
// within-class processing order, same item emission order); the solver
// relies on this to run its sampling round as one chunked pass over a
// Source without materializing promise or endpoint arrays.
//
// Unlike NewDeferred, the builder also records each stored edge's
// original stream index and weight, so the resulting Items carry enough
// to drive refinement and the offline union step with no random access
// back into the input.
type DeferredBuilder struct {
	n, m    int
	chi     float64
	cfg     Config // defaults and chi² oversampling already applied
	classes map[int]*construction
	keys    []int // sorted class ids, rebuilt by Finish
	// slots is the side data of the stored edges, append-only in
	// storage order: the constructions' stored rows hold slot ids, so
	// Finish reaches an edge's side data — and its local index, which
	// levelOf hashes — by position rather than through a map.
	slots []builderEdge
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
// m (the count must be known up front: it fixes the subsampling depth,
// exactly as NewDeferred derives it from its array length); chi >= 1 is
// the promised distortion bound. A reused builder keeps its slot
// buffer's and class map's capacity: a caller that runs one
// construction per job per round (the solver's sampling pass) holds one
// builder per job and stops reallocating the side data every round.
// Call only after Finish (or on a builder that was never fed).
func (b *DeferredBuilder) Reset(n, m int, chi float64, cfg Config) error {
	if chi < 1 {
		return fmt.Errorf("sparsify: chi %v < 1", chi)
	}
	if m < 0 {
		return fmt.Errorf("sparsify: negative edge count %d", m)
	}
	b.n, b.m, b.chi = n, m, chi
	b.cfg = deferredConfig(n, chi, cfg)
	if b.classes == nil {
		b.classes = make(map[int]*construction)
	}
	clear(b.classes)
	b.slots = b.slots[:0]
	return nil
}

// Add streams one edge into the construction. localIdx must be the edge's
// position in the builder's own sequence (0..m-1, strictly increasing
// across calls — it drives the subsampling hash); orig is its index in
// the original stream and w its original weight, both retained only for
// stored edges. Edges with non-positive sigma are dropped, matching
// bucketByClass.
func (b *DeferredBuilder) Add(localIdx int, u, v int32, w float64, orig int, sigma float64) {
	if !(sigma > 0) {
		return
	}
	cl := int(math.Floor(math.Log2(sigma)))
	c := b.classes[cl]
	if c == nil {
		c = newConstruction(b.n, b.m, withClassSeed(b.cfg, cl))
		b.classes[cl] = c
	}
	if c.process(localIdx, len(b.slots), u, v) {
		b.slots = append(b.slots, builderEdge{u: u, v: v, localIdx: localIdx, w: w, orig: orig, sigma: sigma})
	}
}

// Finish emits the Deferred. The per-class item streams concatenate in
// increasing class order — the order NewDeferred's sorted bucketByClass
// produces — so the structure is identical to the array-fed construction
// on the same input. When the builder was configured with a Scratch,
// Finish draws the emitted items from the pool and retires every
// construction (forests and shells) back to it on the way out: the
// Deferred carries only its Items and needs no forest state, and the
// caller hands the items back through Deferred.Release. The builder
// must not be fed again until Reset.
func (b *DeferredBuilder) Finish() *Deferred {
	var scr *Scratch
	if s := b.cfg.Scratch; s != nil && s.n == b.n {
		scr = s
	}
	keys := b.keys[:0]
	//lint:ordered key collection, sorted immediately below
	for cl := range b.classes {
		keys = append(keys, cl)
	}
	sort.Ints(keys)
	b.keys = keys
	d := &Deferred{n: b.n, chi: b.chi, scr: scr}
	if scr != nil {
		d.items = scr.getItems(0)
	}
	for _, cl := range keys {
		sub := b.classes[cl]
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
		sub.retire()
	}
	clear(b.classes)
	b.slots = b.slots[:0]
	return d
}
