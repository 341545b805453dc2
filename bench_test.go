package repro

// One testing.B benchmark per experiment table (E1–E14, E17, EA, ES — see
// DESIGN.md section 4 and EXPERIMENTS.md). Each benchmark regenerates
// its table in quick mode and reports rows produced; `go test -bench=. -benchmem`
// therefore re-derives every quantitative claim of the paper at CI
// scale. Run cmd/matchbench for the full-scale tables.
//
// BenchmarkSolveOOC and BenchmarkScanGreedy are the exceptions: one
// solve each of the repository benchmark's solve-ooc and scan-greedy
// workloads (perfbench/), for profiling what that benchmark measures
// (`make bench-profile` profiles the first).

import (
	"context"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

func runExperiment(b *testing.B, id string) {
	fn, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	rows := 0
	for i := 0; i < b.N; i++ {
		tab := fn(bench.Config{Quick: true, Seed: uint64(i) + 1})
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
		rows += len(tab.Rows)
		tab.Print(io.Discard)
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

func BenchmarkE1Approximation(b *testing.B) { runExperiment(b, "e1") }
func BenchmarkE2RoundsSpace(b *testing.B)   { runExperiment(b, "e2") }
func BenchmarkE3Baselines(b *testing.B)     { runExperiment(b, "e3") }
func BenchmarkE4Adaptivity(b *testing.B)    { runExperiment(b, "e4") }
func BenchmarkE5TriangleGap(b *testing.B)   { runExperiment(b, "e5") }
func BenchmarkE6Width(b *testing.B)         { runExperiment(b, "e6") }
func BenchmarkE7Sparsifier(b *testing.B)    { runExperiment(b, "e7") }
func BenchmarkE8Filtering(b *testing.B)     { runExperiment(b, "e8") }
func BenchmarkE9MapReduce(b *testing.B)     { runExperiment(b, "e9") }
func BenchmarkE10BMatching(b *testing.B)    { runExperiment(b, "e10") }
func BenchmarkE11Congest(b *testing.B)      { runExperiment(b, "e11") }
func BenchmarkE12Relaxations(b *testing.B)  { runExperiment(b, "e12") }
func BenchmarkE13Scaling(b *testing.B)      { runExperiment(b, "e13") }
func BenchmarkE14Workers(b *testing.B)      { runExperiment(b, "e14") }
func BenchmarkE17Throughput(b *testing.B)   { runExperiment(b, "e17") }

func BenchmarkEAblations(b *testing.B)  { runExperiment(b, "ea") }
func BenchmarkESemiStream(b *testing.B) { runExperiment(b, "es") }

// BenchmarkSolveOOC solves solve-ooc's instance with its options: GNM
// n=640, m=80 000, weights uniform in [1, 25], written as RBG2 and read
// back through the mmap'd file source; ε=0.3, p=2, one worker, the
// practical profile with 6 forests per sparsifier and χ=1. Each
// iteration is a cold solver, as in the benchmark.
func BenchmarkSolveOOC(b *testing.B) {
	g := graph.GNM(640, 80000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 1)
	prof := match.Practical(0.3)
	prof.SparsifierK = 6
	prof.ChiOverride = 1
	solveColdFromRBG2(b, stream.NewEdgeStream(g), match.WithProfile(prof))
}

// BenchmarkScanGreedy solves scan-greedy's instance with its options:
// n=65 536 and m=4 194 304 edges from stream.NewGen (seed 1) with
// weights uniform in [1, 25], written as RBG2 and read back through the
// mmap'd file source; greedy-augment with ε=0.3, p=2 and one worker.
// Each iteration is a cold solver, as in the benchmark.
func BenchmarkScanGreedy(b *testing.B) {
	gen, err := stream.NewGen(stream.GenSpec{N: 65536, M: 4 << 20,
		Weights: graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	solveColdFromRBG2(b, gen, match.WithAlgorithm("greedy-augment"))
}

// solveColdFromRBG2 writes from as an RBG2 file, opens it through mmap
// and times one cold Solver per iteration with ε=0.3, p=2, one worker
// and the given options, as perfbench's batch workloads do.
func solveColdFromRBG2(b *testing.B, from stream.Source, opts ...match.Option) {
	path := filepath.Join(b.TempDir(), "instance.rbg")
	if err := stream.WriteBinaryFile2(path, from); err != nil {
		b.Fatal(err)
	}
	src, err := stream.OpenBinary(path)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	opts = append([]match.Option{match.WithEps(0.3), match.WithSpaceExponent(2), match.WithWorkers(1)}, opts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := match.New(opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(context.Background(), src); err != nil {
			b.Fatal(err)
		}
	}
}
