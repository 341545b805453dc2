package sketch

import "repro/internal/xrand"

// L0Spec fixes the shared randomness for a family of mergeable ℓ0-sampler
// sketches: a level hash (geometric subsampling) and per-level s-sparse
// specs. All samplers from one spec subsample identically, so merging
// samplers of vectors x and y yields a valid sampler of x+y.
type L0Spec struct {
	levels    int
	levelHash *xrand.PolyHash
	sspec     *SSparseSpec
}

// NewL0Spec creates a spec. universeLog should be ~log2 of the number of
// distinct keys that may appear (levels = universeLog + 2); sparsity s
// around 8-16 gives small failure probability per decode.
func NewL0Spec(r *xrand.RNG, universeLog, s, rows int) *L0Spec {
	if universeLog < 1 {
		universeLog = 1
	}
	return &L0Spec{
		levels:    universeLog + 2,
		levelHash: xrand.NewPolyHash(r.Split(0x10), 2),
		sspec:     NewSSparseSpec(r.Split(0x20), s, rows),
	}
}

// L0 is a mergeable ℓ0-sampler: after arbitrary insertions and deletions
// it returns some non-zero coordinate of the implicit vector (whp), with
// the choice statistically close to uniform over the support.
type L0 struct {
	spec   *L0Spec
	levels []*SSparse
}

// NewL0 returns a zeroed sampler. The level sketches and their cells
// come from two batched allocations rather than one pair per level: a
// bank build constructs n·reps of these samplers, so the constant
// number of allocations per sampler dominates cold-build cost. Each
// level's cell slice is full-capacity sub-sliced, so per-level state
// stays as independent as individually allocated sketches.
func (spec *L0Spec) NewL0() *L0 {
	ss := spec.sspec
	per := ss.rows * ss.buckets
	cells := make([]OneSparse, spec.levels*per)
	for i := range cells {
		cells[i] = NewOneSparse(ss.z)
	}
	structs := make([]SSparse, spec.levels)
	lv := make([]*SSparse, spec.levels)
	for i := range lv {
		structs[i] = SSparse{spec: ss, cells: cells[i*per : (i+1)*per : (i+1)*per]}
		lv[i] = &structs[i]
	}
	return &L0{spec: spec, levels: lv}
}

// updateRaw fans one hoisted update out to the surviving subsampling
// levels.
func (s *L0) updateRaw(keyMod, d, zPowKey uint64) {
	maxLevel := s.spec.levelHash.LevelMod(keyMod, s.spec.levels-1)
	for l := 0; l <= maxLevel; l++ {
		s.levels[l].updateRaw(keyMod, d, zPowKey)
	}
}

// UpdateRows applies one (key, delta) update to every sampler in rows —
// one per repetition, each from its own spec — hoisting the shared key
// reduction and field delta across repetitions; each repetition still
// evaluates z^key under its own base through its window table. This is
// the multi-repetition entry point of the MapReduce reducers, which
// maintain a row of samplers per vertex. Bit-identical to updating each
// row separately.
func UpdateRows(rows []*L0, key uint64, delta int64) {
	keyMod := key % prime
	d := toField(delta)
	for _, s := range rows {
		s.updateRaw(keyMod, d, s.spec.sspec.zpow.Pow(key))
	}
}

// Reset zeroes the sampler in place for reuse, keeping every level's
// allocation.
func (s *L0) Reset() {
	for _, lv := range s.levels {
		lv.Reset()
	}
}

// Merge absorbs another sampler from the same spec.
func (s *L0) Merge(o *L0) {
	if s.spec != o.spec {
		panic("sketch: merging L0 samplers from different specs")
	}
	for i := range s.levels {
		s.levels[i].Merge(o.levels[i])
	}
}

// Clone returns an independent copy.
func (s *L0) Clone() *L0 {
	lv := make([]*SSparse, len(s.levels))
	for i := range lv {
		lv[i] = s.levels[i].Clone()
	}
	return &L0{spec: s.spec, levels: lv}
}

// Sample returns a non-zero coordinate of the implicit vector. It scans
// from the sparsest (deepest) level down to level 0 and returns the
// smallest-hash surviving key at the first level that decodes, which makes
// the choice a deterministic function of the sketch randomness (required
// for consistent reuse inside one Boruvka round). ok=false means the
// vector is zero or recovery failed at every level (probability
// exponentially small in the spec's rows when the vector is non-zero).
func (s *L0) Sample() (key uint64, value int64, ok bool) {
	for l := len(s.levels) - 1; l >= 0; l-- {
		keys, values, dok := s.levels[l].Recover()
		if !dok || len(keys) == 0 {
			continue
		}
		best := 0
		bestHash := s.spec.levelHash.Hash(keys[0])
		for i := 1; i < len(keys); i++ {
			if h := s.spec.levelHash.Hash(keys[i]); h < bestHash {
				best, bestHash = i, h
			}
		}
		return keys[best], values[best], true
	}
	return 0, 0, false
}
