// Command matchsolve runs the dual-primal (1-ε)-approximate weighted
// nonbipartite b-matching solver on a generated or file-based instance
// and prints the matching, the dual certificate and the resource stats.
//
// Instances come from a generator or from -input with a -format:
//
//	matchsolve -n 200 -m 2000 -dist uniform -eps 0.25 -p 2
//	matchsolve -input edges.txt -eps 0.125            # lines: u v w
//	matchsolve -input inst.col -format dimacs         # DIMACS edge format
//	matchsolve -input big.rbg -format bin             # out-of-core binary
//	matchsolve -n 100 -m 800 -verify                  # compare to exact blossom
//	matchsolve -input edges.txt -convert big.rbg      # text -> binary (RBG2), no solve
//	matchsolve -input old.rbg -format bin -convert new.rbg  # migrate RBG1 -> RBG2
//	matchsolve -input e.txt -convert g.rbg -codec rbg1      # force the fixed-record codec
//	matchsolve -n 200 -m 2000 -json                   # machine-readable result
//	matchsolve -n 200 -m 2000 -max-rounds 2           # enforce a round budget
//	matchsolve -algo list                             # enumerate the algorithms
//	matchsolve -n 200 -m 2000 -algo greedy            # a different substrate
//	matchsolve -n 200 -m 2000 -repeat 5 -warm-duals   # session reuse + warm-started duals
//
// Every algorithm in the table (-algo list) runs under the same
// engine driver: budgets, the stats meters and context handling behave
// identically whichever substrate computes the matching.
//
// The binary format (-format bin) is solved through the file-backed
// source: edges are read in buffered passes and never fully
// materialized, so instances larger than memory work.
//
// The resource budgets (-max-passes, -max-rounds, -max-words; 0 =
// unlimited) are enforced inside the engine: when one trips, the
// best-so-far matching is still printed, the tripped axis goes to
// stderr, and the exit code is 3.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/parallel"
	"repro/internal/stream"
	"repro/match"
)

// Exit codes: 0 success, 1 operational error, 2 usage error, 3 budget
// exceeded (best-so-far result was still printed).
const exitBudget = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// solveOutput is the -json document: the instance summary, the full
// public result, and — when a budget tripped — the axis details.
type solveOutput struct {
	Algorithm string `json:"algorithm"`
	Instance  struct {
		N      int `json:"n"`
		M      int `json:"m"`
		TotalB int `json:"totalB"`
	} `json:"instance"`
	Result         *match.Result      `json:"result"`
	BudgetExceeded *match.BudgetError `json:"budgetExceeded,omitempty"`
	Verification   *verification      `json:"verification,omitempty"`
}

type verification struct {
	Optimum float64 `json:"optimum"`
	Ratio   float64 `json:"ratio"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("matchsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 128, "vertices (generated instance)")
	m := fs.Int("m", 1024, "edges (generated instance)")
	dist := fs.String("dist", "uniform", "weight distribution: unit|uniform|powers|exp")
	wmax := fs.Float64("wmax", 100, "max weight for uniform")
	eps := fs.Float64("eps", 0.25, "accuracy epsilon")
	p := fs.Float64("p", 2, "space exponent p (> 1)")
	seed := fs.Uint64("seed", 1, "random seed")
	input := fs.String("input", "", "instance file instead of a generator")
	format := fs.String("format", "edgelist", "input format: edgelist|dimacs|bin")
	convert := fs.String("convert", "", "write the instance to this binary file and exit")
	codec := fs.String("codec", "rbg2", "binary codec for -convert: rbg2 (compressed) | rbg1 (fixed records)")
	bmax := fs.Int("bmax", 1, "random vertex capacities in [1,bmax]")
	verify := fs.Bool("verify", false, "also run the exact blossom solver and report the ratio")
	workers := fs.Int("workers", 0, "pipeline workers (0 = GOMAXPROCS, 1 = sequential; results identical)")
	jsonOut := fs.Bool("json", false, "print the result as JSON instead of text")
	maxPasses := fs.Int("max-passes", 0, "budget: metered passes over the input (0 = unlimited)")
	maxRounds := fs.Int("max-rounds", 0, "budget: adaptive sampling rounds (0 = unlimited)")
	maxWords := fs.Int("max-words", 0, "budget: peak central storage in words (0 = unlimited)")
	algo := fs.String("algo", match.DefaultAlgorithm, "matching algorithm from the registry, or 'list' to enumerate")
	repeat := fs.Int("repeat", 1, "re-solve the same source N times through one session (per-iteration lines in text mode)")
	warmDuals := fs.Bool("warm-duals", false, "with -repeat: seed each re-solve's duals from the previous solution")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *repeat < 1 {
		fmt.Fprintf(stderr, "-repeat %d must be >= 1\n", *repeat)
		return 2
	}
	if *warmDuals && *repeat < 2 {
		fmt.Fprintln(stderr, "-warm-duals requires -repeat >= 2 (there is no previous solution to seed from)")
		return 2
	}

	fail := func(formatStr string, a ...any) int {
		fmt.Fprintf(stderr, formatStr+"\n", a...)
		return 1
	}

	if *algo == "list" {
		printAlgorithms(stdout)
		return 0
	}

	// Assemble the instance behind a Source. The binary path stays
	// out-of-core; everything else materializes (text must be parsed, and
	// a generated graph here is small by construction).
	var src match.Source
	switch {
	case *input != "" && strings.ToLower(*format) == "bin":
		if *bmax > 1 {
			return fail("-bmax is not supported with -format bin: capacities live in the file (use -convert after applying them)")
		}
		fsrc, err := stream.OpenBinary(*input)
		if err != nil {
			return fail("open %s: %v", *input, err)
		}
		defer fsrc.Close()
		src = fsrc
	case *input != "":
		g, err := readTextGraph(*input, *format)
		if err != nil {
			return fail("read %s: %v", *input, err)
		}
		if *bmax > 1 {
			graph.WithRandomB(g, *bmax, false, *seed+1)
		}
		src = stream.NewEdgeStream(g)
	default:
		wc := graph.WeightConfig{Mode: graph.UniformWeights, WMax: *wmax}
		switch *dist {
		case "unit":
			wc = graph.WeightConfig{Mode: graph.UnitWeights}
		case "powers":
			wc = graph.WeightConfig{Mode: graph.PowersOf, Eps: *eps, Levels: 12}
		case "exp":
			wc = graph.WeightConfig{Mode: graph.ExpWeights, Scale: 2}
		case "uniform":
		default:
			fmt.Fprintf(stderr, "unknown -dist %q\n", *dist)
			return 2
		}
		g := graph.GNM(*n, *m, wc, *seed)
		if *bmax > 1 {
			graph.WithRandomB(g, *bmax, false, *seed+1)
		}
		src = stream.NewEdgeStream(g)
	}

	if *convert != "" {
		write := stream.WriteBinaryFile2
		switch strings.ToLower(*codec) {
		case "rbg2":
		case "rbg1":
			write = stream.WriteBinaryFile
		default:
			fmt.Fprintf(stderr, "unknown -codec %q (want rbg1 or rbg2)\n", *codec)
			return 2
		}
		if err := write(*convert, src); err != nil {
			return fail("convert: %v", err)
		}
		fmt.Fprintf(stdout, "wrote %s (%s): n=%d m=%d B=%d\n", *convert, strings.ToLower(*codec), src.N(), src.Len(), src.TotalB())
		return 0
	}

	solver, err := match.New(
		match.WithEps(*eps),
		match.WithSpaceExponent(*p),
		match.WithSeed(*seed+2),
		match.WithWorkers(*workers),
		match.WithBudget(match.Budget{Passes: *maxPasses, Rounds: *maxRounds, SpaceWords: *maxWords}),
		match.WithAlgorithm(*algo),
	)
	if err != nil {
		return fail("configure: %v", err)
	}
	// One solver session serves every -repeat iteration; with
	// -warm-duals each re-solve seeds its duals from the previous
	// solution, so the per-iteration lines make the round/pass savings
	// visible. Only the final iteration's result is reported in full
	// (and in the -json document).
	var res *match.Result
	var budgetErr *match.BudgetError
	for iter := 1; iter <= *repeat; iter++ {
		var extra []match.Option
		if *warmDuals && res != nil {
			extra = append(extra, match.WithInitialDuals(res))
		}
		r, err := solver.Solve(context.Background(), src, extra...)
		budgetErr = nil
		if err != nil && !errors.As(err, &budgetErr) {
			return fail("solve: %v", err)
		}
		res = r
		if *repeat > 1 && !*jsonOut {
			st := r.Stats
			fmt.Fprintf(stdout, "repeat          iter=%d/%d rounds=%d init=%d passes=%d weight=%.4f warm=%v\n",
				iter, *repeat, st.SamplingRounds, st.InitRounds, st.Passes, r.Weight, st.WarmStarted)
		}
	}
	if err := res.Validate(src); err != nil {
		return fail("internal error: invalid matching: %v", err)
	}

	var verif *verification
	if *verify {
		g := stream.Materialize(src)
		// No size limit: above one, OfflineB would return a greedy
		// weight, not the optimum.
		_, opt := matching.OfflineB(g, matching.OfflineConfig{ExactLimit: math.MaxInt})
		if opt > 0 {
			verif = &verification{Optimum: opt, Ratio: res.Weight / opt}
		}
	}

	if *jsonOut {
		out := solveOutput{Algorithm: *algo, Result: res, BudgetExceeded: budgetErr, Verification: verif}
		out.Instance.N = src.N()
		out.Instance.M = src.Len()
		out.Instance.TotalB = src.TotalB()
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail("encode: %v", err)
		}
	} else {
		if *algo != match.DefaultAlgorithm {
			fmt.Fprintf(stdout, "algorithm       %s\n", *algo)
		}
		fmt.Fprintf(stdout, "instance        n=%d m=%d B=%d\n", src.N(), src.Len(), src.TotalB())
		fmt.Fprintf(stdout, "matching        edges=%d weight=%.4f\n", res.Matching.Size(), res.Weight)
		fmt.Fprintf(stdout, "dual            objective=%.4f lambda=%.4f certified-bound=%.4f\n",
			res.DualObjective, res.Lambda, res.CertifiedUpperBound())
		st := res.Stats
		fmt.Fprintf(stdout, "rounds          init=%d sampling=%d (early-stop=%v)\n", st.InitRounds, st.SamplingRounds, st.EarlyStopped)
		fmt.Fprintf(stdout, "adaptivity      oracle-uses=%d micro-calls=%d pack-iters=%d\n", st.OracleUses, st.MicroCalls, st.PackIters)
		fmt.Fprintf(stdout, "space           peak-sampled-edges=%d peak-words=%d dual-state-words=%d\n", st.PeakSampleEdges, st.PeakWords, st.DualStateWords)
		fmt.Fprintf(stdout, "stream          passes=%d\n", st.Passes)
		fmt.Fprintf(stdout, "pipeline        workers=%d (resolved %d)\n", *workers, parallel.Workers(*workers))
		if verif != nil {
			fmt.Fprintf(stdout, "verification    optimum=%.4f ratio=%.4f (target >= %.4f)\n", verif.Optimum, verif.Ratio, 1-*eps)
		}
	}
	if budgetErr != nil {
		fmt.Fprintf(stderr, "budget exceeded on %s: used %d, limit %d (best-so-far result printed)\n",
			budgetErr.Axis, budgetErr.Used, budgetErr.Limit)
		return exitBudget
	}
	return 0
}

// printAlgorithms renders the algorithm table, aligned — the
// -algo list enumeration.
func printAlgorithms(w io.Writer) {
	infos := match.Algorithms()
	rows := make([][4]string, 0, len(infos)+1)
	rows = append(rows, [4]string{"NAME", "MODEL", "GUARANTEE", "RESOURCES"})
	for _, info := range infos {
		rows = append(rows, [4]string{info.Name, info.Model, info.Guarantee, info.Resources})
	}
	var width [3]int
	for _, r := range rows {
		for i := 0; i < 3; i++ {
			if len(r[i]) > width[i] {
				width[i] = len(r[i])
			}
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s  %-*s  %-*s  %s\n", width[0], r[0], width[1], r[1], width[2], r[2], r[3])
	}
}

func readTextGraph(path, format string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(format) {
	case "edgelist":
		return graph.ReadEdgeList(f)
	case "dimacs":
		return graph.ReadDIMACS(f)
	default:
		return nil, fmt.Errorf("unknown -format %q (edgelist|dimacs|bin)", format)
	}
}
