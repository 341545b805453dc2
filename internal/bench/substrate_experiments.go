package bench

import (
	"math"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/matching"
	"repro/internal/sparsify"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// E7Sparsifier — Lemma 17: the deferred sparsifier preserves cuts within
// (1±ξ) after χ-bounded weight drift, with size scaling ~χ².
func E7Sparsifier(cfg Config) Table {
	t := Table{
		ID:      "E7",
		Title:   "deferred cut-sparsifier quality and size (Lemma 17)",
		Columns: []string{"n", "m", "chi", "stored", "stored/m", "max-cut-err", "target-xi"},
	}
	// A complete graph (edge connectivity n-1) with a small base forest
	// count: sampling only bites when connectivity >> K·chi², so this is
	// the regime where the size/accuracy trade-off stays visible across
	// the whole chi sweep.
	n := 300
	if cfg.Quick {
		n = 140
	}
	g := graph.GNP(n, 1.0, graph.WeightConfig{}, cfg.Seed+41)
	xi := 0.25
	chis := []float64{1, 2, 4}
	if cfg.Quick {
		chis = []float64{1, 2}
	}
	r := xrand.New(cfg.Seed + 43)
	for _, chi := range chis {
		sigma := make([]float64, g.M())
		u := make([]float64, g.M())
		for i := range sigma {
			sigma[i] = 1 + 3*r.Float64()
			u[i] = sigma[i] * math.Pow(chi, 2*r.Float64()-1)
		}
		dg, err := sparsify.NewDeferred(g.N(), func(i int) (int32, int32) {
			e := g.Edge(i)
			return e.U, e.V
		}, g.M(), sigma, chi, sparsify.Config{Xi: xi, K: 8, Seed: cfg.Seed + 47})
		if err != nil {
			t.Note("chi=%g: %v", chi, err)
			continue
		}
		sp := dg.Refine(func(i int) float64 { return u[i] })
		// Truth graph under u.
		tg := graph.New(g.N())
		for i, e := range g.Edges() {
			tg.MustAddEdge(int(e.U), int(e.V), u[i])
		}
		worst := 0.0
		rr := xrand.New(cfg.Seed + 53)
		for trial := 0; trial < 40; trial++ {
			mask := make([]bool, g.N())
			for i := range mask {
				mask[i] = rr.Bernoulli(0.5)
			}
			truth := tg.CutWeight(mask)
			if truth <= 0 {
				continue
			}
			if rel := math.Abs(sp.CutWeight(mask)-truth) / truth; rel > worst {
				worst = rel
			}
		}
		t.AddRow(d(n), d(g.M()), f(chi), d(dg.Size()),
			fr(float64(dg.Size())/float64(g.M())), fr(worst), f(xi))
	}
	t.Note("expected shape: max-cut-err stays bounded for all chi; stored grows ~chi^2, < m for small chi")
	t.Note("base K fixed at 8 (deferred scales it by chi^2) to expose the sampling regime; the theory's K = O(log^2 n / xi^2) stores everything at this scale")
	return t
}

// E8Filtering — Lemma 20 / [25]: per-round survivor counts fall by a
// factor ~n^(1/p), giving O(p) rounds.
func E8Filtering(cfg Config) Table {
	t := Table{
		ID:      "E8",
		Title:   "filtering: survivors per round shrink by ~n^(1/p) (Lemma 20)",
		Columns: []string{"n", "m", "p", "rounds", "survivors-per-round", "n^(1/p)"},
	}
	n := 300
	m := 20000
	if cfg.Quick {
		n, m = 120, 4000
	}
	g := graph.GNM(n, m, graph.WeightConfig{}, cfg.Seed+59)
	for _, p := range []float64{1.5, 2, 3} {
		s := stream.NewEdgeStream(g)
		_, stats := matching.MaximalMatchingFilter(s, p, cfg.Seed+61, nil)
		t.AddRow(d(n), d(m), f(p), d(stats.Rounds),
			intsToString(stats.EdgesPerRound), f(math.Pow(float64(n), 1/p)))
	}
	t.Note("expected shape: rounds <= O(p); random instances collapse even faster than the worst-case")
	t.Note("n^(1/p) decay — the paper's own observation that these iterative algorithms beat their bounds")
	return t
}

func intsToString(xs []int) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ">"
		}
		out += d(x)
	}
	return out
}

// E9MapReduce — Section 4.2 / Corollary 2: sketches are built in one MR
// round and collected in a second; the collecting machine holds Õ(n)
// sketches, not m edges.
func E9MapReduce(cfg Config) Table {
	t := Table{
		ID:      "E9",
		Title:   "MapReduce pipeline: 2 rounds, sublinear central memory (Sec 4.2)",
		Columns: []string{"n", "m", "machines", "rounds", "round1-max-kvs", "round2-max-kvs", "components-ok"},
	}
	sizes := []int{80, 160}
	if cfg.Quick {
		sizes = []int{60}
	}
	for _, n := range sizes {
		g := graph.GNP(n, 0.4, graph.WeightConfig{}, cfg.Seed+uint64(n)+67)
		_, want := g.ConnectedComponents()
		c := mapreduce.NewCluster(8)
		uf, stats := mapreduce.ConnectedComponentsMR(c, g, cfg.Seed+71)
		ok := uf.Components() == want
		t.AddRow(d(n), d(g.M()), d(8), d(stats.Rounds),
			d(stats.RoundMaxKVs[0]), d(stats.RoundMaxKVs[1]), yn(ok))
	}
	t.Note("expected shape: rounds = 2; round-2 machine load ~n (sketches), decoupled from m")
	return t
}

// E10BMatching — Theorem 15's b-matching extension: quality holds with
// capacities; space/levels scale with log B.
func E10BMatching(cfg Config) Table {
	t := Table{
		ID:      "E10",
		Title:   "b-matching: quality under capacities, levels ~ log B",
		Columns: []string{"n", "m", "b-regime", "B", "ratio", "rounds"},
	}
	n := 48
	m := 300
	if cfg.Quick {
		n, m = 32, 160
	}
	regimes := []struct {
		name string
		bmax int
		zipf bool
	}{
		{"unit", 1, false}, {"b<=3", 3, false}, {"zipf<=8", 8, true},
	}
	for _, reg := range regimes {
		g := graph.GNM(n, m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, cfg.Seed+79)
		if reg.bmax > 1 {
			graph.WithRandomB(g, reg.bmax, reg.zipf, cfg.Seed+83)
		}
		_, opt := matching.OfflineB(g, matching.OfflineConfig{ExactLimit: 700})
		if opt == 0 {
			continue
		}
		res, err := solveB(g, cfg.Seed+89, cfg.Workers)
		if err != nil {
			t.Note("%s: %v", reg.name, err)
			continue
		}
		t.AddRow(d(n), d(m), reg.name, d(g.TotalB()), fr(res.Weight/opt),
			d(res.Stats.SamplingRounds))
	}
	t.Note("expected shape: ratio ~1-eps across capacity regimes")
	noteWorkers(&t, cfg)
	return t
}

// E11Congest — congested clique: O(n^(1/p)) words per vertex message,
// O(p)-ish rounds for the maximal-matching layer.
func E11Congest(cfg Config) Table {
	t := Table{
		ID:      "E11",
		Title:   "congested clique: per-vertex message size O(n^(1/p))",
		Columns: []string{"n", "m", "p", "budget=n^(1/p)", "max-sample-msg", "rounds", "maximal"},
	}
	n := 100
	m := 3000
	if cfg.Quick {
		n, m = 60, 800
	}
	g := graph.GNM(n, m, graph.WeightConfig{}, cfg.Seed+97)
	for _, p := range []float64{2, 3} {
		res := congest.MaximalMatchingClique(g, p, cfg.Seed+101, 0)
		mm, _ := res.Matching(g)
		maximal := mm.IsMaximal(g) && mm.Validate(g) == nil
		t.AddRow(d(n), d(m), f(p), d(int(math.Ceil(math.Pow(float64(n), 1/p)))),
			d(res.MaxSampleMsgWords), d(res.Stats.Rounds), yn(maximal))
	}
	t.Note("expected shape: max-sample-msg <= n^(1/p); a few rounds per p")
	return t
}
