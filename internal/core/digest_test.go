package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// Absolute result pins. The corpus suites compare solve paths with one
// another (1 vs k workers, backend vs backend, reused vs fresh), so a
// change that moves every path the same way passes them. These digests
// were recorded once and pin each run's outcome outright: the Weight,
// DualObjective and Lambda bits, the matching's indices and
// multiplicities, and every Stats field. A pure refactor or a
// performance change must leave every digest unchanged; a change that
// means to alter results re-records them and says so.

// leanProfile is the E15 / perfbench solve-ooc constant set: 6 forests
// per sparsifier and no deferred oversampling.
func leanProfile(eps float64) *Profile {
	p := Practical(eps)
	p.SparsifierK = 6
	p.ChiOverride = 1
	return &p
}

// digestRun is one pinned solve.
type digestRun struct {
	name string
	g    *graph.Graph
	opt  Options
}

func digestRuns() []digestRun {
	var runs []digestRun
	for _, name := range []string{"gnm-uniform", "gnm-powers", "gnm-exp", "powerlaw", "triangles", "bipartite", "bmatching"} {
		g := solverCorpus()[name]
		runs = append(runs,
			digestRun{name + "/default", g, Options{Eps: 0.25, P: 2, Seed: 7, Workers: 1}},
			digestRun{name + "/lean", g, Options{Eps: 0.25, P: 2, Seed: 7, Workers: 1, Profile: leanProfile(0.25)}})
	}
	// n above the offline ExactLimit (600): the union solve runs greedy
	// plus augmentation, where tied weights make the sort order matter.
	unit := graph.GNM(700, 8000, graph.WeightConfig{Mode: graph.UnitWeights}, 201)
	powers := graph.GNM(700, 20000, graph.WeightConfig{Mode: graph.PowersOf, Eps: 0.25, Levels: 6}, 202)
	uniform := graph.GNM(700, 20000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 203)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"gnm700-unit", unit}, {"gnm700-powers", powers}, {"gnm700-uniform", uniform}} {
		runs = append(runs, digestRun{tc.name + "/lean", tc.g,
			Options{Eps: 0.3, P: 2, Seed: 11, Workers: 1, MaxRounds: 3, Profile: leanProfile(0.3)}})
	}
	return runs
}

// resultDigest hashes everything a solve reports except the dual
// snapshot (a copy of the dual state DualObjective already summarizes),
// plus the observer's λ/β trajectory.
func resultDigest(res *result) string {
	h := sha256.New()
	putF := func(f float64) { putU64(h, math.Float64bits(f)) }
	putF(res.Weight)
	putF(res.DualObjective)
	putF(res.Lambda)
	putU64(h, uint64(len(res.Matching.EdgeIdx)))
	for _, idx := range res.Matching.EdgeIdx {
		putU64(h, uint64(idx))
	}
	putU64(h, uint64(len(res.Matching.Mult)))
	for _, c := range res.Matching.Mult {
		putU64(h, uint64(c))
	}
	// Every Stats field, in declaration order: a field added later
	// enters the digest automatically (and forces a re-record). The λ/β
	// trajectory sits where the digests were recorded with it, right
	// after UnionSizes.
	sv := reflect.ValueOf(res.Stats)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		putValue(h, name, sv.Field(i))
		if name == "UnionSizes" {
			putValue(h, "lambdas", reflect.ValueOf(res.lambdas))
			putValue(h, "betas", reflect.ValueOf(res.betas))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func putU64(h hash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}

func putValue(h hash.Hash, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int:
		putU64(h, uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			putU64(h, 1)
		} else {
			putU64(h, 0)
		}
	case reflect.Float64:
		putU64(h, math.Float64bits(v.Float()))
	case reflect.Slice:
		putU64(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			putValue(h, name, v.Index(i))
		}
	default:
		panic("resultDigest: unhandled Stats field " + name + " of kind " + v.Kind().String())
	}
}

// pinnedDigests were recorded from the code before the index-addressed
// round bookkeeping landed (dense slots and rows instead of maps, one
// packed sort for the offline solve), which had to leave all of them
// unchanged.
var pinnedDigests = map[string]string{
	"gnm-uniform/default": "98b8703ced6fbddc",
	"gnm-uniform/lean":    "148322f69238d4f4",
	"gnm-powers/default":  "7a40199ba500242f",
	"gnm-powers/lean":     "5ab31373ec01a2c1",
	"gnm-exp/default":     "f3d1229f7953fafa",
	"gnm-exp/lean":        "a23900fccaffa565",
	"powerlaw/default":    "8e57b15026512fef",
	"powerlaw/lean":       "d1d378106d7b6d54",
	"triangles/default":   "e392113757dd1a21",
	"triangles/lean":      "6415e911502c0499",
	"bipartite/default":   "d9d2550fcddfdede",
	"bipartite/lean":      "05ffb9ccc52d6f8c",
	"bmatching/default":   "1ad9e2c3457cb9a5",
	"bmatching/lean":      "341655f1858025d8",
	"gnm700-unit/lean":    "c784eeadff812a22",
	"gnm700-powers/lean":  "5aa98a780259e401",
	"gnm700-uniform/lean": "b47a65a34f4c07b5",
}

func TestResultDigestsPinned(t *testing.T) {
	// The Go spec lets an implementation fuse x*y+z into one rounding;
	// the compiler does so on arm64, ppc64 and s390x but not on amd64,
	// where these digests were recorded and where CI runs.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64 float rounding; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, run := range digestRuns() {
		res, err := solveGraph(run.g, run.opt)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		got := resultDigest(res)
		if want := pinnedDigests[run.name]; got != want {
			t.Errorf("%s: digest %s, pinned %s (weight=%v rounds=%d unions=%v)",
				run.name, got, want, res.Weight, res.Stats.SamplingRounds, res.Stats.UnionSizes)
		}
	}
}
