package match_test

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// TestFileSolveSameAtAnyGOMAXPROCS solves a five-block instance from
// RBG1 and RBG2 files, mapped and read with pread, at GOMAXPROCS 1,
// where a FileSource decodes every block inline, and at 4, where its
// sequential passes decode ahead on helper goroutines. Every Result must
// be the in-memory solve's, bit for bit, for the dual-primal solver on
// a lean profile (whose sparsifiers sample), cut at four rounds to keep
// the test short, and for greedy-augment. The pinned backend suites use
// one-block instances, which decode inline at any GOMAXPROCS.
func TestFileSolveSameAtAnyGOMAXPROCS(t *testing.T) {
	gen, err := stream.NewGen(stream.GenSpec{N: 400, M: 4*stream.BlockEdges + 321,
		Weights: graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	g := stream.Materialize(gen)
	files := map[string]*stream.FileSource{}
	for codec, write := range map[string]func(string, stream.Source) error{
		"rbg1": stream.WriteBinaryFile, "rbg2": stream.WriteBinaryFile2} {
		path := filepath.Join(t.TempDir(), codec)
		if err := write(path, stream.NewEdgeStream(g)); err != nil {
			t.Fatal(err)
		}
		for _, noMmap := range []bool{false, true} {
			src, err := stream.OpenBinaryWith(path, stream.OpenOptions{NoMmap: noMmap})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { src.Close() })
			access := "/mmap"
			if !src.Mapped() {
				access = "/pread"
			}
			files[codec+access] = src
		}
	}
	prof := match.Practical(0.3)
	prof.SparsifierK = 2
	prof.ChiOverride = 1
	for _, algo := range []string{"dual-primal", "greedy-augment"} {
		solve := func(src match.Source) string {
			t.Helper()
			solver, err := match.New(match.WithEps(0.3), match.WithProfile(prof), match.WithSeed(5),
				match.WithWorkers(1), match.WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			res, err := solver.Solve(context.Background(), src, match.WithBudget(match.Budget{Rounds: 4}))
			if err != nil && !errors.Is(err, match.ErrBudgetExceeded) {
				t.Fatalf("%s: %v", algo, err)
			}
			return jsonDigest(t, res)
		}
		want := solve(stream.NewEdgeStream(g))
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for name, src := range files {
				if got := solve(src); got != want {
					t.Errorf("%s from %s at GOMAXPROCS %d: digest %s, in memory %s", algo, name, procs, got, want)
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}
