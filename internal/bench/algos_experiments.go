package bench

import (
	"errors"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/match"
)

// E16Algorithms — one engine, many algorithms: every substrate in the
// algorithm table solves the same shared graph families under the same
// round-loop driver, and the table shows what each model of computation
// pays (passes, rounds, peak central words) for the quality it gets —
// the cross-model trade-off the paper's Theorems 15/20 price out,
// finally comparable like for like because the meters are the driver's,
// not each substrate's own bookkeeping.
func E16Algorithms(cfg Config) Table {
	t := Table{
		ID:      "E16",
		Title:   "cross-algorithm: quality vs passes vs peak words on the shared engine driver",
		Columns: []string{"family", "algo", "weight", "ratio", "rounds", "passes", "peak-words", "ms"},
	}
	n, m := 96, 900
	if cfg.Quick {
		n, m = 48, 360
	}
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm-uniform", graph.GNM(n, m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 40}, cfg.Seed+501)},
		{"bipartite", graph.Bipartite(n/2, n/2, m/2, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, cfg.Seed+503)},
		{"gnm-unit", graph.GNM(n, m, graph.WeightConfig{}, cfg.Seed+505)},
	}
	for _, fam := range families {
		_, opt := matching.OfflineB(fam.g, matching.OfflineConfig{ExactLimit: 1200})
		for _, info := range match.Algorithms() {
			var res *match.Result
			var err error
			ms := timeIt(func() {
				res, err = solveGraph(fam.g, 0.25, 2, cfg.Seed+507, cfg.Workers,
					match.WithAlgorithm(info.Name))
			})
			if errors.Is(err, match.ErrUnsupported) {
				t.AddRow(fam.name, info.Name, "unsupported", "-", "-", "-", "-", "-")
				continue
			}
			if err != nil {
				t.AddRow(fam.name, info.Name, "ERR "+err.Error(), "-", "-", "-", "-", "-")
				continue
			}
			ratio := 0.0
			if opt > 0 {
				ratio = res.Weight / opt
			}
			t.AddRow(fam.name, info.Name, f(res.Weight), fr(ratio),
				d(res.Stats.SamplingRounds), d(res.Stats.Passes), d(res.Stats.PeakWords),
				f(float64(ms.Microseconds())/1000))
		}
	}
	t.Note("ratio is against the exact max-WEIGHT b-matching: cardinality algorithms (greedy, clique, hopcroft-karp) trade weight for fewer passes/rounds")
	t.Note("hopcroft-karp is bipartite-only: 'unsupported' rows are the model's honest answer, not a failure")
	noteWorkers(&t, cfg)
	return t
}
