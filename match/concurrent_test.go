package match_test

// Concurrent solves: one Solver serving many goroutines at once (the
// cached session plus throwaway fallbacks) and one Solver per goroutine
// (a fleet of sessions) must both return exactly what sequential
// solves return. CI runs these under -race.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

func concurrentGraph(seed uint64) *graph.Graph {
	return graph.GNM(40, 200, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, seed)
}

// barrierObserver holds a solve at its first round until every solve
// sharing the barrier has reached its own first round, so all of them
// hold a session at once.
type barrierObserver struct {
	once    sync.Once
	arrived *sync.WaitGroup
}

// arrive counts this solve in, once; the solving goroutine also calls
// it after Solve returns, so a solve that fails before its first round
// cannot hold the others forever.
func (o *barrierObserver) arrive() { o.once.Do(o.arrived.Done) }

func (o *barrierObserver) OnRound(match.RoundEvent) {
	o.arrive()
	o.arrived.Wait()
}

// TestConcurrentSolvesMatchSequential pins the concurrency contract of
// one Solver: nine Solve calls held in flight together, so one runs on
// the cached session and eight fall back to throwaway sessions, each
// return the result a lone solve of the same instance returns.
func TestConcurrentSolvesMatchSequential(t *testing.T) {
	opts := []match.Option{match.WithSeed(5), match.WithWorkers(1)}
	solver, err := match.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 9
	var arrived, wg sync.WaitGroup
	arrived.Add(jobs)
	results := make([]*match.Result, jobs)
	errs := make([]error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			obs := &barrierObserver{arrived: &arrived}
			defer obs.arrive()
			results[j], errs[j] = solver.Solve(context.Background(),
				stream.NewEdgeStream(concurrentGraph(uint64(j%3))), match.WithObserver(obs))
		}(j)
	}
	wg.Wait()
	for j := 0; j < jobs; j++ {
		if errs[j] != nil {
			t.Fatalf("solve %d: %v", j, errs[j])
		}
		lone, err := match.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lone.Solve(context.Background(), stream.NewEdgeStream(concurrentGraph(uint64(j%3))))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "concurrent-solve", want, results[j])
	}
}

// TestConcurrentSessionsGreedyOfflineRace runs two Solvers on two
// goroutines at once through the offline solve's greedy branch (n
// above the exact-blossom limit of 600), where each solver keeps its
// own sort and mark buffers, and with two workers per solve, so the
// sampling pass's per-job builders run in parallel too. Each Solver
// solves both instances, reusing its session. Under -race this pins
// that no buffer is shared between sessions or solves; every result
// must equal a sequential solve of the same instance. A round cap
// keeps it short.
func TestConcurrentSessionsGreedyOfflineRace(t *testing.T) {
	prof := match.Practical(0.3)
	prof.SparsifierK = 6
	prof.ChiOverride = 1
	opts := []match.Option{match.WithEps(0.3), match.WithSeed(3), match.WithWorkers(2),
		match.WithProfile(prof), match.WithMaxRounds(2)}
	instances := []*graph.Graph{
		graph.GNM(700, 6000, graph.WeightConfig{Mode: graph.PowersOf, Eps: 0.25, Levels: 4}, 31),
		graph.GNM(720, 6000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 32),
	}
	const sessions = 2
	results := make([][]*match.Result, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		solver, err := match.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := range instances {
				res, err := solver.Solve(context.Background(),
					stream.NewEdgeStream(instances[(s+k)%len(instances)]))
				if err != nil {
					errs[s] = err
					return
				}
				results[s] = append(results[s], res)
			}
		}(s)
	}
	wg.Wait()
	for s := 0; s < sessions; s++ {
		if errs[s] != nil {
			t.Fatalf("session %d: %v", s, errs[s])
		}
		for k, got := range results[s] {
			solver, err := match.New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := solver.Solve(context.Background(),
				stream.NewEdgeStream(instances[(s+k)%len(instances)]))
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "concurrent-greedy-solve", want, got)
		}
	}
}
