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
// TestMiniOracleRhoSearchPinned under Practical(0.25). It was recorded
// while each MicroOracle answer of the ϱ search still had a buffer of its
// own.
const rhoSearchDigest = "45996dd0c97befdd"

// rhoFallbackDigest pins the same supports' outputs with the search
// capped at zero steps, where every rejected ϱ1 goes to the ϱ0 fallback.
const rhoFallbackDigest = "85ac383872065ba2"

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
// shared by every case, and pins a digest of all the outputs, under two
// profiles. A case that ends without a witness and makes more
// MicroOracle calls than packing iterations had some Oracle-P invocation
// reject ϱ1. Under Practical(0.25) that invocation entered Lemma 10's ϱ
// search: it probed between its brackets and returned their
// combination. With BinSearchCap = 0, a value any Profile may set, the
// search loop never runs, so the invocation called the MicroOracle at ϱ0
// and combined that answer with ϱ1's. The test requires at least 100
// such cases under each profile, so that a probe overwriting a bracket
// it must keep, or a fallback that mixes up its slots, changes a digest.
func TestMiniOracleRhoSearchPinned(t *testing.T) {
	const cases = 2000
	noSearch := Practical(0.25)
	noSearch.BinSearchCap = 0
	for _, tc := range []struct {
		name   string
		prof   Profile
		digest string
	}{
		{"Practical(0.25)", Practical(0.25), rhoSearchDigest},
		{"BinSearchCap=0", noSearch, rhoFallbackDigest},
	} {
		prof := tc.prof
		bOf := func(int) int { return 1 }
		rng := xrand.New(0x3c0de)
		shared := newOracleScratch()
		all := fnv.New64a()
		rejected := 0
		for c := 0; c < cases; c++ {
			edges, nl, beta := randomSupport(rng)
			cold := runMiniOracle(edges, beta, 0.25, prof, bOf, unitWHat, nl, prof.OddSetNormCap, newOracleScratch())
			warm := runMiniOracle(edges, beta, 0.25, prof, bOf, unitWHat, nl, prof.OddSetNormCap, shared)
			hc, hw := fnv.New64a(), fnv.New64a()
			writeMini(hc, &cold)
			writeMini(hw, &warm)
			if hc.Sum64() != hw.Sum64() {
				t.Fatalf("%s, case %d: the shared scratch's result differs from a fresh scratch's", tc.name, c)
			}
			writeMini(all, &cold)
			if !cold.matchingWitness && cold.microCalls > cold.packIters {
				rejected++
			}
		}
		if rejected < 100 {
			t.Fatalf("%s: %d of %d cases rejected ϱ1, want at least 100", tc.name, rejected, cases)
		}
		if got := fmt.Sprintf("%016x", all.Sum64()); got != tc.digest {
			t.Errorf("%s: digest %s, pinned %s (%d of %d cases rejected ϱ1)", tc.name, got, tc.digest, rejected, cases)
		}
	}
}
