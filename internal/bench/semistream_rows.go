package bench

import (
	"repro/internal/graph"
	"repro/internal/semistream"
	"repro/internal/stream"
	"repro/match"
)

// semiStreamRows runs each streaming baseline on g and formats rows.
// The engine-driven baselines run through the facade; McGregor's
// replacement rule, which no engine algorithm runs, reads the stream
// directly.
func semiStreamRows(g *graph.Graph, opt float64, cfg Config) [][]string {
	var rows [][]string
	add := func(algo string, w float64, passes int) {
		rows = append(rows, []string{d(g.N()), d(g.M()), algo, fr(w / opt), d(passes)})
	}
	solve := func(algo string, extra ...match.Option) {
		if res, err := solveGraph(g, 0.25, 2, cfg.Seed+311, cfg.Workers, extra...); err == nil {
			add(algo, res.Weight, res.Stats.Passes)
		}
	}
	solve("one-pass-greedy", match.WithAlgorithm("greedy"))

	s := stream.NewEdgeStream(g)
	m := semistream.OnePassReplace(s, 1)
	add("one-pass-replace(g=1)", m.Weight(g), s.Passes())

	solve("3-augment-passes", match.WithAlgorithm("greedy-augment"), match.WithMaxRounds(6))
	solve("dual-primal(eps=1/4)")
	return rows
}
