package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/xrand"
)

// rhoSearchDigest pins every runMiniOracle output of
// TestMiniOracleRhoSearchPinned. It was recorded while each MicroOracle
// answer of the ϱ search still had a buffer of its own.
const rhoSearchDigest = "45996dd0c97befdd"

// randomSupport draws a small support for the ϱ-search pin: 3–14
// vertices, each pair an edge with probability 1/2, at one of 1–3
// levels, with weight in [0, 3). β is drawn from [4.5, 5.5), near the
// weight of such a support's matchings: well below it the first probe
// finds a witness, well above it ϱ1 is accepted, and in between Lemma
// 10's binary search runs.
func randomSupport(rng *xrand.RNG) (edges []supportEdge, nLevels int, beta float64) {
	nV := 3 + rng.Intn(12)
	nLevels = 1 + rng.Intn(3)
	for u := 0; u < nV; u++ {
		for v := u + 1; v < nV; v++ {
			if rng.Float64() < 0.5 {
				edges = append(edges, supportEdge{u: int32(u), v: int32(v),
					k: rng.Intn(nLevels), w: 3 * rng.Float64(), origIdx: len(edges)})
			}
		}
	}
	return edges, nLevels, 4.5 + rng.Float64()
}

// writeMini folds one MiniOracle result into h: the call counts, the
// witness flag, and every answer entry with the bits of its value and a
// z entry's level and members.
func writeMini(h hash.Hash64, r *miniResult) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	witness := uint64(0)
	if r.matchingWitness {
		witness = 1
	}
	put(uint64(r.microCalls))
	put(uint64(r.packIters))
	put(witness)
	put(uint64(len(r.answer.xEntries)))
	for _, xe := range r.answer.xEntries {
		put(uint64(xe.v))
		put(uint64(xe.k))
		put(math.Float64bits(xe.val))
	}
	put(uint64(len(r.answer.zEntries)))
	for _, ze := range r.answer.zEntries {
		put(uint64(ze.level))
		put(math.Float64bits(ze.val))
		put(uint64(len(ze.members)))
		for _, m := range ze.members {
			put(uint64(m))
		}
	}
}

// TestMiniOracleRhoSearchPinned runs random small supports through
// runMiniOracle, each with a fresh scratch and again through one scratch
// shared by every case, and pins a digest of all the outputs. A case
// that ends without a witness and makes more MicroOracle calls than
// packing iterations entered Lemma 10's ϱ search: at least one Oracle-P
// invocation rejected ϱ1, probed between its brackets and returned their
// combination. The test requires at least 100 such cases, so that a
// probe overwriting a bracket it must keep changes the digest.
func TestMiniOracleRhoSearchPinned(t *testing.T) {
	const cases = 2000
	prof := Practical(0.25)
	bOf := func(int) int { return 1 }
	rng := xrand.New(0x3c0de)
	shared := newOracleScratch()
	all := fnv.New64a()
	searched := 0
	for c := 0; c < cases; c++ {
		edges, nl, beta := randomSupport(rng)
		cold := runMiniOracle(edges, beta, 0.25, prof, bOf, unitWHat, nl, prof.OddSetNormCap, newOracleScratch())
		warm := runMiniOracle(edges, beta, 0.25, prof, bOf, unitWHat, nl, prof.OddSetNormCap, shared)
		hc, hw := fnv.New64a(), fnv.New64a()
		writeMini(hc, &cold)
		writeMini(hw, &warm)
		if hc.Sum64() != hw.Sum64() {
			t.Fatalf("case %d: the shared scratch's result differs from a fresh scratch's", c)
		}
		writeMini(all, &cold)
		if !cold.matchingWitness && cold.microCalls > cold.packIters {
			searched++
		}
	}
	if searched < 100 {
		t.Fatalf("%d of %d cases entered the ϱ search, want at least 100", searched, cases)
	}
	if got := fmt.Sprintf("%016x", all.Sum64()); got != rhoSearchDigest {
		t.Errorf("digest %s, pinned %s (%d of %d cases searched)", got, rhoSearchDigest, searched, cases)
	}
}
