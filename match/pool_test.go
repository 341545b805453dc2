package match_test

// match.Pool: correctness of the fleet (every job answered, results
// identical to sequential solves), per-job budgets, FIFO fairness of
// the queue, closed-pool semantics, and a cancellation-mid-drain
// stress designed to run under -race (the CI race job executes this
// package with the detector on).

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

func poolGraph(seed uint64) *graph.Graph {
	return graph.GNM(40, 200, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, seed)
}

// TestPoolMatchesSequential pins that a pool solve is the same solve:
// every job's result is bit-identical to the one a lone Solver returns
// for the same (instance, options).
func TestPoolMatchesSequential(t *testing.T) {
	opts := []match.Option{match.WithSeed(5), match.WithWorkers(1)}
	pool, err := match.NewPool(3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const jobs = 9
	chans := make([]<-chan match.JobResult, jobs)
	for j := 0; j < jobs; j++ {
		chans[j] = pool.Submit(context.Background(), stream.NewEdgeStream(poolGraph(uint64(j%3))))
	}
	for j := 0; j < jobs; j++ {
		got := <-chans[j]
		if got.Err != nil {
			t.Fatalf("job %d: %v", j, got.Err)
		}
		solver, err := match.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solver.Solve(context.Background(), stream.NewEdgeStream(poolGraph(uint64(j%3))))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "pool-job", want, got.Result)
	}
}

// TestPoolPerJobBudget pins that Submit's extra options are per-job: a
// budgeted job trips while its unbudgeted sibling completes.
func TestPoolPerJobBudget(t *testing.T) {
	pool, err := match.NewPool(2, match.WithSeed(5), match.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	g := poolGraph(7)
	tight := pool.Submit(context.Background(), stream.NewEdgeStream(g),
		match.WithBudget(match.Budget{Rounds: 1}))
	free := pool.Submit(context.Background(), stream.NewEdgeStream(g))
	tr := <-tight
	if !errors.Is(tr.Err, match.ErrBudgetExceeded) {
		t.Fatalf("budgeted job err = %v, want ErrBudgetExceeded", tr.Err)
	}
	if tr.Result == nil || tr.Result.Stats.SamplingRounds != 1 {
		t.Fatalf("budgeted job did not return the best-so-far result: %+v", tr.Result)
	}
	fr := <-free
	if fr.Err != nil {
		t.Fatalf("unbudgeted job: %v", fr.Err)
	}
	if fr.Result.Stats.SamplingRounds <= 1 {
		t.Fatalf("unbudgeted job was constrained: %d rounds", fr.Result.Stats.SamplingRounds)
	}
}

// fifoObserver records which job a round event belonged to — the
// service-order probe of the FIFO test.
type fifoObserver struct {
	mu    *sync.Mutex
	order *[]int
	job   int
	seen  bool
}

func (o *fifoObserver) OnRound(match.RoundEvent) {
	if o.seen {
		return
	}
	o.seen = true
	o.mu.Lock()
	*o.order = append(*o.order, o.job)
	o.mu.Unlock()
}

// TestPoolFIFO pins arrival-order fairness: a single-session pool must
// *serve* jobs strictly in Submit order (observed via per-job round
// observers, which fire on the worker during the solve — receiver
// goroutine scheduling plays no part).
func TestPoolFIFO(t *testing.T) {
	pool, err := match.NewPool(1, match.WithSeed(5), match.WithWorkers(1), match.WithAlgorithm("greedy"))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	const jobs = 6
	var chans [jobs]<-chan match.JobResult
	for j := 0; j < jobs; j++ {
		chans[j] = pool.Submit(context.Background(), stream.NewEdgeStream(poolGraph(uint64(j))),
			match.WithObserver(&fifoObserver{mu: &mu, order: &order, job: j}))
	}
	for j := 0; j < jobs; j++ {
		if r := <-chans[j]; r.Err != nil {
			t.Fatalf("job %d: %v", j, r.Err)
		}
	}
	pool.Close()
	for i, j := range order {
		if i != j {
			t.Fatalf("service order %v is not Submit order", order)
		}
	}
}

// TestPoolClosed pins the closed-pool contract.
func TestPoolClosed(t *testing.T) {
	pool, err := match.NewPool(2, match.WithSeed(5), match.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	pool.Close() // idempotent
	r := <-pool.Submit(context.Background(), stream.NewEdgeStream(poolGraph(1)))
	if !errors.Is(r.Err, match.ErrPoolClosed) {
		t.Fatalf("submit after close: err = %v, want ErrPoolClosed", r.Err)
	}
}

// TestPoolCancellationMidDrain is the race-detector stress: many
// submitters, several with contexts cancelled while their jobs are
// queued or solving, then Close racing the last submissions. Every job
// must be answered exactly once with either a result or a context/
// closed error — no deadlock, no leaked worker, no double send.
func TestPoolCancellationMidDrain(t *testing.T) {
	pool, err := match.NewPool(3, match.WithSeed(5), match.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	const submitters = 8
	const perSubmitter = 5
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if (s+j)%3 == 0 {
					ctx, cancel = context.WithCancel(ctx)
					go func() {
						time.Sleep(time.Duration(s+j) * 100 * time.Microsecond)
						cancel()
					}()
				}
				res := <-pool.Submit(ctx, stream.NewEdgeStream(poolGraph(uint64(j))))
				switch {
				case res.Err == nil:
					if res.Result == nil {
						t.Error("nil result without error")
					}
				case errors.Is(res.Err, context.Canceled):
					// cancelled while queued (nil result) or mid-solve
					// (best-so-far result) — both legal.
				default:
					t.Errorf("unexpected job error: %v", res.Err)
				}
				if cancel != nil {
					cancel()
				}
			}
		}(s)
	}
	wg.Wait()
	pool.Close()
	// After the drain, submits answer ErrPoolClosed.
	r := <-pool.Submit(context.Background(), stream.NewEdgeStream(poolGraph(2)))
	if !errors.Is(r.Err, match.ErrPoolClosed) {
		t.Fatalf("post-drain submit: err = %v, want ErrPoolClosed", r.Err)
	}
}

// gatedSource is an EdgeStream whose metered passes block until the
// gate channel is closed — it lets the test freeze solves mid-pool so
// queue depth and in-flight counts are observable at a known state.
type gatedSource struct {
	*stream.EdgeStream
	gate <-chan struct{}
}

func (g *gatedSource) ForEach(f func(int, graph.Edge) bool) {
	<-g.gate
	g.EdgeStream.ForEach(f)
}

func (g *gatedSource) ForEachParallel(workers int, f func(int, graph.Edge)) {
	<-g.gate
	g.EdgeStream.ForEachParallel(workers, f)
}

func (g *gatedSource) ForEachBlocks(f func(int, []graph.Edge) bool) {
	<-g.gate
	g.EdgeStream.ForEachBlocks(f)
}

func (g *gatedSource) ForEachBlocksParallel(workers int, f func(int, []graph.Edge)) {
	<-g.gate
	g.EdgeStream.ForEachBlocksParallel(workers, f)
}

// waitStats polls until the pool snapshot satisfies ok (the pool keeps
// moving between Submit and a session pickup, so the test must wait for
// the state to settle rather than assert it instantaneously).
func waitStats(t *testing.T, pool *match.Pool, ok func(match.PoolStats) bool) match.PoolStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := pool.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool stats never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolStats pins the introspection contract the serving layer
// scrapes: Sessions is the configured size, InFlight counts solves
// holding a session, Queued counts accepted jobs no session has picked
// up, and both drain back to zero once the jobs finish.
func TestPoolStats(t *testing.T) {
	pool, err := match.NewPool(1, match.WithSeed(3), match.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if st := pool.Stats(); st.Sessions != 1 || st.Queued != 0 || st.InFlight != 0 {
		t.Fatalf("idle pool stats = %+v, want {1 0 0}", st)
	}
	gate := make(chan struct{})
	const jobs = 3
	chans := make([]<-chan match.JobResult, jobs)
	for j := 0; j < jobs; j++ {
		src := &gatedSource{EdgeStream: stream.NewEdgeStream(poolGraph(uint64(j))), gate: gate}
		chans[j] = pool.Submit(context.Background(), src)
	}
	st := waitStats(t, pool, func(st match.PoolStats) bool {
		return st.InFlight == 1 && st.Queued == jobs-1
	})
	if st.Sessions != 1 {
		t.Fatalf("Sessions = %d, want 1", st.Sessions)
	}
	close(gate)
	for j, ch := range chans {
		if r := <-ch; r.Err != nil {
			t.Fatalf("job %d: %v", j, r.Err)
		}
	}
	waitStats(t, pool, func(st match.PoolStats) bool {
		return st.InFlight == 0 && st.Queued == 0
	})
}

// TestPoolConcurrentGreedyOfflineRace runs two pool sessions at once
// through the offline solve's greedy branch (n above the exact-blossom
// limit of 600), where each solver keeps its own sort and mark buffers,
// and with two workers per solve, so the sampling pass's per-job
// builders run in parallel too. Under -race this pins that no buffer is
// shared between sessions or jobs; every result must equal a
// sequential solve of the same instance. A round cap keeps it short.
func TestPoolConcurrentGreedyOfflineRace(t *testing.T) {
	prof := match.Practical(0.3)
	prof.SparsifierK = 6
	prof.ChiOverride = 1
	opts := []match.Option{match.WithEps(0.3), match.WithSeed(3), match.WithWorkers(2),
		match.WithProfile(prof), match.WithMaxRounds(2)}
	instances := []*graph.Graph{
		graph.GNM(700, 6000, graph.WeightConfig{Mode: graph.PowersOf, Eps: 0.25, Levels: 4}, 31),
		graph.GNM(720, 6000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 32),
	}
	pool, err := match.NewPool(2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const jobs = 4
	chans := make([]<-chan match.JobResult, jobs)
	for j := 0; j < jobs; j++ {
		chans[j] = pool.Submit(context.Background(), stream.NewEdgeStream(instances[j%2]))
	}
	for j := 0; j < jobs; j++ {
		got := <-chans[j]
		if got.Err != nil {
			t.Fatalf("job %d: %v", j, got.Err)
		}
		solver, err := match.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solver.Solve(context.Background(), stream.NewEdgeStream(instances[j%2]))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "pool-greedy-job", want, got.Result)
	}
}
