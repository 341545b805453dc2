// Warm-dual serving: repeated solves of a fingerprint-identical
// instance are seeded from the previous solve's duals and converge to
// a single round, while any perturbation of the instance changes the
// fingerprint and gets the certified cold start. The chain mirrors the
// arXiv:2107.09770 learned-duals recipe, served from a cache instead
// of a predictor.

package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/match"
)

// solveSync posts one synchronous solve and decodes the document.
func solveSync(t *testing.T, base string, spec JobSpec) JobStatus {
	t.Helper()
	code, body := postJSON(t, base+"/v1/solve", spec)
	if code != http.StatusOK {
		t.Fatalf("solve: HTTP %d, body %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWarmChainConvergesToOneRound pins the headline serving win: the
// cold solve takes its full trajectory, the first warm solve is seeded
// and strictly cheaper, and the chain reaches the one-round fixed
// point — certified through the SSE stream, not just the counters.
func TestWarmChainConvergesToOneRound(t *testing.T) {
	_, ts := startServer(t, Config{})
	spec := JobSpec{Source: edgesSpec(testGraph(3))}

	cold := solveSync(t, ts.URL, spec)
	if cold.WarmHit {
		t.Fatal("first solve claims a warm hit on an empty cache")
	}
	if cold.Rounds < 2 {
		t.Fatalf("cold solve took %d rounds; the chain needs a trajectory", cold.Rounds)
	}

	warm := solveSync(t, ts.URL, spec)
	if !warm.WarmHit {
		t.Fatal("second solve of the identical instance missed the warm cache")
	}
	if warm.Rounds >= cold.Rounds {
		t.Fatalf("warm solve took %d rounds, cold took %d; seeding bought nothing", warm.Rounds, cold.Rounds)
	}
	if warm.Result == nil || warm.Result.Weight != cold.Result.Weight {
		t.Fatalf("warm result %v, cold result %v: seeding changed the answer", warm.Result, cold.Result)
	}

	// Each solve refreshes the cache with sharper duals; the chain must
	// hit the one-round fixed point and stay there.
	last, fixedAt := warm, -1
	for i := 0; i < 6; i++ {
		last = solveSync(t, ts.URL, spec)
		if !last.WarmHit {
			t.Fatalf("chain solve %d missed the warm cache", i+3)
		}
		if last.Rounds == 1 {
			fixedAt = i + 3
			break
		}
	}
	if fixedAt < 0 {
		t.Fatalf("chain never reached the one-round fixed point (last solve: %d rounds)", last.Rounds)
	}
	again := solveSync(t, ts.URL, spec)
	if again.Rounds != 1 {
		t.Fatalf("fixed point is not fixed: solve after convergence took %d rounds", again.Rounds)
	}

	// Certify the one-round claim through the event stream: the job's
	// SSE replay must hold exactly one round event.
	id := submitJob(t, ts.URL, spec)
	st := waitDone(t, ts.URL, id)
	if st.Rounds != 1 {
		t.Fatalf("async converged solve took %d rounds", st.Rounds)
	}
	events := decodeRounds(t, readSSE(t, ts.URL+"/v1/jobs/"+id+"/events").rounds)
	if len(events) != 1 || events[0].Round != 1 {
		t.Fatalf("streamed %d events (first %+v), want exactly one round", len(events), events)
	}
	if st.Result.Weight != cold.Result.Weight {
		t.Errorf("converged weight %v differs from cold %v", st.Result.Weight, cold.Result.Weight)
	}
}

// TestWarmPerturbationColdStarts pins the fingerprint boundary: one
// reweighted edge changes the content hash, so the solve must miss the
// cache and run the full certified cold trajectory.
func TestWarmPerturbationColdStarts(t *testing.T) {
	g := testGraph(3)
	_, ts := startServer(t, Config{})

	solveSync(t, ts.URL, JobSpec{Source: edgesSpec(g)})
	warm := solveSync(t, ts.URL, JobSpec{Source: edgesSpec(g)})
	if !warm.WarmHit {
		t.Fatal("identical re-solve missed the cache; perturbation test has no baseline")
	}

	perturbed := edgesSpec(g)
	perturbed.Edges[7][2] += 0.25
	got := solveSync(t, ts.URL, JobSpec{Source: perturbed})
	if got.WarmHit {
		t.Fatal("perturbed instance claims a warm hit")
	}
	// The certified cold start runs the same trajectory length a fresh
	// in-process solve of the perturbed instance does.
	pg := testGraph(3)
	e := pg.Edges()
	e[7].W += 0.25
	want, err := match.Solve(t.Context(), stream.NewEdgeStream(pg), testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Stats.SamplingRounds {
		t.Errorf("perturbed solve took %d rounds, in-process cold solve took %d",
			got.Rounds, want.Stats.SamplingRounds)
	}
	if got.Result.Weight != want.Weight {
		t.Errorf("perturbed weight %v, in-process %v", got.Result.Weight, want.Weight)
	}
}

// TestWarmOptOut pins the per-job switch: warmStart=false skips the
// cache both ways (no seed consumed, no entry fed), and a disabled
// cache (WarmCacheSize < 0) never warms anything.
func TestWarmOptOut(t *testing.T) {
	spec := JobSpec{Source: edgesSpec(testGraph(3))}
	f := false
	optOut := spec
	optOut.WarmStart = &f

	_, ts := startServer(t, Config{})
	cold := solveSync(t, ts.URL, spec)
	got := solveSync(t, ts.URL, optOut)
	if got.WarmHit {
		t.Fatal("opted-out solve claims a warm hit")
	}
	if got.Rounds != cold.Rounds {
		t.Errorf("opted-out solve took %d rounds, cold %d", got.Rounds, cold.Rounds)
	}

	_, ts2 := startServer(t, Config{WarmCacheSize: -1})
	solveSync(t, ts2.URL, spec)
	if again := solveSync(t, ts2.URL, spec); again.WarmHit {
		t.Fatal("warm hit with the cache disabled")
	}
}

// TestWarmMetrics pins the observable counters: one miss then one hit,
// and a populated cache gauge.
func TestWarmMetrics(t *testing.T) {
	_, ts := startServer(t, Config{})
	spec := JobSpec{Source: edgesSpec(testGraph(3))}
	solveSync(t, ts.URL, spec)
	solveSync(t, ts.URL, spec)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"matchd_warm_hits_total 1",
		"matchd_warm_misses_total 1",
		"matchd_warm_cache_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestWarmCacheEviction unit-tests the FIFO fingerprint cache: the
// oldest distinct key falls out at capacity, refreshing an existing
// key keeps its position, and get answers nil past eviction.
func TestWarmCacheEviction(t *testing.T) {
	c := newWarmCache(2)
	k := func(n int) fpKey { return fpKey{n: n} }
	r1, r2, r3 := &match.Result{}, &match.Result{}, &match.Result{}

	c.put(k(1), r1)
	c.put(k(2), r2)
	if c.size() != 2 {
		t.Fatalf("size = %d, want 2", c.size())
	}
	// Refreshing key 1 must not evict anything or reorder the queue.
	c.put(k(1), r3)
	if got := c.get(k(1)); got != r3 {
		t.Fatal("refresh did not replace the entry")
	}
	if c.size() != 2 {
		t.Fatalf("size after refresh = %d, want 2", c.size())
	}
	// A third distinct key evicts the oldest (key 1, inserted first).
	c.put(k(3), r3)
	if c.get(k(1)) != nil {
		t.Error("oldest key survived eviction")
	}
	if c.get(k(2)) == nil || c.get(k(3)) == nil {
		t.Error("younger keys were evicted")
	}
	if c.size() != 2 {
		t.Errorf("size = %d, want 2", c.size())
	}
}

// TestGenAdmissionReadsNoEdge pins the admission cost of a gen job: its
// fingerprint is its generator spec, so a job at the admission caps
// (n = 2^20, m = 2^24, whose full replay takes most of a second)
// admits without replaying a single edge.
func TestGenAdmissionReadsNoEdge(t *testing.T) {
	s, _ := startServer(t, Config{})
	spec := &JobSpec{Source: SourceSpec{Kind: "gen", N: maxJobVertices, M: maxGenEdges,
		Weights: "uniform", WMax: 25, Seed: 3}}
	start := time.Now()
	j, errDoc := s.buildJob(context.Background(), spec)
	elapsed := time.Since(start)
	if errDoc != nil {
		t.Fatalf("cap-sized gen job refused: %+v", errDoc)
	}
	defer j.discard()
	if !j.warmEligible {
		t.Fatal("cap-sized gen job is not warm-eligible")
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("admitting a cap-sized gen job took %v; admission must not replay the stream", elapsed)
	}
}

// TestGenRepeatHitsWarmCache pins the other half of the spec key: the
// same generator spec twice is a warm hit with the cold answer, and a
// different seed is a miss.
func TestGenRepeatHitsWarmCache(t *testing.T) {
	_, ts := startServer(t, Config{})
	spec := JobSpec{Source: genSpec(4)}
	cold := solveSync(t, ts.URL, spec)
	if cold.WarmHit {
		t.Fatal("first gen solve claims a warm hit on an empty cache")
	}
	warm := solveSync(t, ts.URL, spec)
	if !warm.WarmHit {
		t.Fatal("repeat of the same gen spec missed the warm cache")
	}
	if warm.Result == nil || warm.Result.Weight != cold.Result.Weight {
		t.Fatalf("warm result %v, cold result %v: seeding changed the answer", warm.Result, cold.Result)
	}
	if other := solveSync(t, ts.URL, JobSpec{Source: genSpec(5)}); other.WarmHit {
		t.Fatal("a gen spec with another seed hit the warm cache")
	}
}
