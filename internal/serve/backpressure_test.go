// Backpressure and drain semantics: a full admission queue answers 429
// with Retry-After over the wire, a queued job's wait is its queueMs,
// Close mid-queue finishes the running jobs while failing the queued
// ones with a clean server-closed error, and a closed server answers
// 503. The tests freeze the fleet with gated sources (metered passes
// block on a channel) so the queue topology is observable at a known
// state.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/stream"
)

// gatedSource is an EdgeStream whose metered passes block until the
// gate closes; Sweep (the fingerprint path) stays un-gated.
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

// gatedJob hand-builds an admitted job around a gated source, skipping
// the wire codec (the codec cannot express a blocking source).
func gatedJob(s *Server, gate <-chan struct{}, seed uint64) *job {
	g := testGraph(seed)
	src := &gatedSource{EdgeStream: stream.NewEdgeStream(g), gate: gate}
	j := &job{
		algo:     s.defaultAlgo,
		src:      src,
		inst:     Instance{N: src.N(), M: src.Len(), TotalB: src.TotalB()},
		ctx:      context.Background(),
		state:    stateQueued,
		queuedAt: time.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// waitFor polls until ok returns true (the workers take jobs
// asynchronously, so topology assertions must wait for a settle).
func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// fillServer freezes a PoolSize-1, QueueLimit-2 server at its exact
// capacity: 1 job running on the worker and 2 in the admission queue —
// 3 admitted jobs, the 4th must bounce. Returns the jobs in admission
// order and the gate's opener, which the test's cleanup also calls so
// a failed check cannot leave Close waiting on a frozen fleet.
func fillServer(t *testing.T, s *Server) ([]*job, func()) {
	t.Helper()
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open)
	const capacity = 3 // 1 running + 2 admission queue
	jobs := make([]*job, 0, capacity)
	for i := 0; i < capacity; i++ {
		j := gatedJob(s, gate, uint64(i))
		if code, errDoc := s.admit(j); errDoc != nil {
			t.Fatalf("job %d bounced with %d %+v before capacity", i, code, errDoc)
		}
		jobs = append(jobs, j)
		if i == 0 {
			// Wait until the worker has taken the first job (and is past
			// the drain check), so the last two occupy the queue and a
			// Close cannot misclassify the first as still-queued.
			waitFor(t, "worker pickup", func() bool {
				return j.snapshot().Status == stateRunning && s.inFlight.Load() == 1
			})
		}
	}
	if len(s.queue) != 2 {
		t.Fatalf("admission queue holds %d jobs, want 2", len(s.queue))
	}
	for i, j := range jobs[1:] {
		if st := j.snapshot(); st.Status != stateQueued {
			t.Fatalf("job %d behind the running one reads %s, want %s", 1+i, st.Status, stateQueued)
		}
	}
	return jobs, open
}

// TestBackpressure429 pins admission control over the wire: at
// capacity the next submission gets 429 with a Retry-After hint, and
// once the fleet drains the same submission is accepted.
func TestBackpressure429(t *testing.T) {
	s, ts := startServer(t, Config{PoolSize: 1, QueueLimit: 2, RetryAfter: 3 * time.Second})
	jobs, open := fillServer(t, s)

	spec := JobSpec{Source: genSpec(99)}
	code, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	if code != http.StatusTooManyRequests {
		t.Fatalf("submission at capacity: HTTP %d, body %s", code, body)
	}
	// Re-issue to read the header (postJSON drops it): the rejection is
	// stable while the fleet stays frozen.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", specReader(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second rejection: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
	// The metrics surface shows both rejections, the frozen queue and
	// the one solve in flight.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"matchd_jobs_rejected_total 2",
		"matchd_queue_depth 2",
		"matchd_pool_inflight 1",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q:\n%s", want, mbody)
		}
	}

	open()
	for i, j := range jobs {
		if st, err := j.wait(t.Context()); err != nil || st.Status != stateDone {
			t.Fatalf("gated job %d ended %s (err %v), want done", i, st.Status, err)
		}
	}
	if code, body = postJSON(t, ts.URL+"/v1/jobs", spec); code != http.StatusAccepted {
		t.Fatalf("submission after drain: HTTP %d, body %s", code, body)
	}
}

// TestQueueWaitIsQueueMs pins where a job waits: a job queued behind a
// running one stays queued until a worker takes it, and the whole wait
// lands in its queueMs, not in its solve time. Queued jobs start in
// admission order: the third starts only after the second is done.
func TestQueueWaitIsQueueMs(t *testing.T) {
	s, _ := startServer(t, Config{PoolSize: 1, QueueLimit: 2})
	jobs, open := fillServer(t, s)

	held := time.Now()
	time.Sleep(50 * time.Millisecond)
	hold := time.Since(held)
	if st := jobs[1].snapshot(); st.Status != stateQueued {
		t.Fatalf("second job reads %s after a %v hold, want %s", st.Status, hold, stateQueued)
	}
	open()
	st, err := jobs[1].wait(t.Context())
	if err != nil || st.Status != stateDone {
		t.Fatalf("second job ended %s (err %v), want done", st.Status, err)
	}
	if want := float64(hold.Microseconds()) / 1000; st.QueueMS < want {
		t.Errorf("second job's queueMs = %.3f, want at least the %.3f ms hold", st.QueueMS, want)
	}
	if st, err := jobs[2].wait(t.Context()); err != nil || st.Status != stateDone {
		t.Fatalf("third job ended %s (err %v), want done", st.Status, err)
	}
	jobs[1].mu.Lock()
	secondDone := jobs[1].doneAt
	jobs[1].mu.Unlock()
	jobs[2].mu.Lock()
	thirdStarted := jobs[2].startedAt
	jobs[2].mu.Unlock()
	if thirdStarted.Before(secondDone) {
		t.Errorf("third job started %v before the second finished", secondDone.Sub(thirdStarted))
	}
}

// TestCloseDrainsInFlight pins the drain contract: the running job
// finishes with a queryable result; jobs still in the admission queue
// fail with the server-closed error; submissions during and after the
// drain get 503.
func TestCloseDrainsInFlight(t *testing.T) {
	s, ts := startServer(t, Config{PoolSize: 1, QueueLimit: 2})
	jobs, open := fillServer(t, s)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, "draining flag", s.draining.Load)

	// The server refuses new work the moment the drain starts.
	code, body := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Source: genSpec(99)})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submission mid-drain: HTTP %d, body %s", code, body)
	}

	open()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close never returned after the gate opened")
	}

	// Admission order was j0..j2: the worker ran j0, the admission
	// queue held j1 and j2.
	if st := jobs[0].snapshot(); st.Status != stateDone || st.Result == nil {
		t.Errorf("running job: status %s result %v, want done with result", st.Status, st.Result)
	}
	for i, j := range jobs[1:] {
		st := j.snapshot()
		if st.Status != stateFailed || st.Error == nil || st.Error.Code != "server_closed" {
			t.Errorf("queued job %d: status %s error %+v, want failed server_closed", 1+i, st.Status, st.Error)
		}
	}

	// Finished jobs stay queryable over the wire after the drain.
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+jobs[0].id, &st); code != http.StatusOK || st.Status != stateDone {
		t.Errorf("post-drain status of %s: HTTP %d status %s", jobs[0].id, code, st.Status)
	}
	// And Close is idempotent.
	s.Close()
}

// TestSyncSolveCancel pins that a synchronous caller walking away
// cancels its solve: the job fails with the canceled code and, since
// its context ended while it was queued, it is never solved, so it
// keeps no result, reads 0 rounds, and adds nothing to the warm-cache
// counters or the solve-time histogram (which holds the gated job's
// solve alone).
func TestSyncSolveCancel(t *testing.T) {
	s, ts := startServer(t, Config{PoolSize: 1})
	gate := make(chan struct{})
	j := gatedJob(s, gate, 1)
	if _, errDoc := s.admit(j); errDoc != nil {
		t.Fatalf("admit: %+v", errDoc)
	}
	waitFor(t, "gated job in flight", func() bool { return s.inFlight.Load() == 1 })

	ctx, cancel := context.WithCancel(t.Context())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve",
		specReader(t, JobSpec{Source: genSpec(7)}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Give the solve a moment to admit, then hang up.
	waitFor(t, "second job admitted", func() bool { return s.lookup("j-000002") != nil })
	cancel()
	<-done
	// The canceled job still waits behind the gated one in the admission
	// queue; open the gate so the worker reaches it and observes the dead
	// context.
	close(gate)
	sync := s.lookup("j-000002")
	waitFor(t, "canceled job terminal", func() bool {
		st := sync.snapshot()
		return st.Status == stateFailed
	})
	st := sync.snapshot()
	if st.Error == nil || st.Error.Code != "canceled" {
		t.Errorf("canceled job error = %+v, want code canceled", st.Error)
	}
	if st.Result != nil || st.Rounds != 0 {
		t.Errorf("canceled job kept a result (%v) and %d rounds, want none and 0", st.Result != nil, st.Rounds)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	lines := strings.Split(string(mbody), "\n")
	for _, want := range []string{
		"matchd_warm_hits_total 0",
		"matchd_warm_misses_total 0",
		"matchd_solve_seconds_count 1",
	} {
		if !slices.Contains(lines, want) {
			t.Errorf("metrics missing %q:\n%s", want, mbody)
		}
	}
}

// specReader marshals a spec for a hand-rolled request.
func specReader(t *testing.T, spec JobSpec) *bytes.Reader {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}
