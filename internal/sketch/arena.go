package sketch

// Arena is a free-list pool of sketch allocations, keyed by spec. A bank
// build is dominated by its per-(vertex, repetition) L0 allocations —
// Õ(polylog) words each, n·reps of them — and a pooled Get hands back a
// Reset sampler instead: Reset restores the exact zero state NewL0
// constructs, so a build drawing from an arena is bit-identical to
// a cold build, it merely skips the allocator.
//
// Ownership rules:
//
//   - A sketch obtained from Get belongs to the caller until it is Put
//     back (or dropped — the arena never tracks lent sketches, so a
//     sketch that aborts with its run is ordinary garbage).
//   - Put requires the spec the sketch was created from; handing a
//     sketch to a pool of a different spec panics — a cross-spec reuse
//     would silently decode under the wrong hash functions.
//   - An Arena is NOT safe for concurrent use. Parallel builders carve
//     per-shard sub-arenas with Shard and pre-split the root's free
//     lists sequentially up front (the same discipline as pre-split
//     RNGs): during the parallel region each worker touches only its
//     own sub-arena.
type Arena struct {
	l0     map[*L0Spec][]*L0
	shards []*Arena
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{l0: make(map[*L0Spec][]*L0)}
}

// GetL0 returns a zeroed ℓ0 sampler of the spec: a pooled one Reset in
// place, or a fresh one when the pool is empty.
func (a *Arena) GetL0(spec *L0Spec) *L0 {
	pool := a.l0[spec]
	if last := len(pool) - 1; last >= 0 {
		s := pool[last]
		a.l0[spec] = pool[:last]
		s.Reset()
		return s
	}
	return spec.NewL0()
}

// PutL0 returns samplers to the spec's pool. The caller must not use
// them afterwards. Panics if a sampler was created from a different
// spec.
func (a *Arena) PutL0(spec *L0Spec, ss ...*L0) {
	for _, s := range ss {
		if s.spec != spec {
			panic("sketch: arena Put of L0 from a different spec")
		}
	}
	a.l0[spec] = append(a.l0[spec], ss...)
}

// Shard returns the i-th sub-arena, creating empty ones on demand. Sub-
// arenas exist for parallel builders: the owner pre-splits pooled
// sketches into them sequentially (Presplit), each worker then Gets only
// from its own shard, and Drain folds leftovers back afterwards. Shard
// itself must only be called sequentially.
func (a *Arena) Shard(i int) *Arena {
	for len(a.shards) <= i {
		a.shards = append(a.shards, NewArena())
	}
	return a.shards[i]
}

// PresplitL0 moves up to counts[i] pooled samplers of the spec from the
// root pool into sub-arena i, sequentially — the arena analogue of
// pre-splitting RNG seeds before a parallel region. Shards whose demand
// exceeds the pool simply allocate fresh during the build.
func (a *Arena) PresplitL0(spec *L0Spec, counts []int) {
	pool := a.l0[spec]
	for i, want := range counts {
		if want > len(pool) {
			want = len(pool)
		}
		if want <= 0 {
			continue
		}
		cut := len(pool) - want
		a.Shard(i).PutL0(spec, pool[cut:]...)
		pool = pool[:cut]
	}
	a.l0[spec] = pool
}

// Drain folds every sub-arena's pools back into the root. Sequential
// use only; callers run it after the parallel region so retained
// capacity is visible (and poolable) globally again.
func (a *Arena) Drain() {
	for _, sh := range a.shards {
		sh.Drain()
		//lint:ordered pool consolidation; free-list order never affects results
		for spec, pool := range sh.l0 {
			a.l0[spec] = append(a.l0[spec], pool...)
			delete(sh.l0, spec)
		}
	}
}

// RetainedWords reports the pooled capacity in 64-bit words, including
// sub-arenas — the observability hook engine.Arena folds into its own
// RetainedWords: memory the process keeps warm, never part of any run's
// metered live space.
func (a *Arena) RetainedWords() int {
	w := 0
	//lint:ordered word-count accumulation over ints, order-independent
	for _, pool := range a.l0 {
		for _, s := range pool {
			w += s.Words()
		}
	}
	for _, sh := range a.shards {
		w += sh.RetainedWords()
	}
	return w
}
