// httptest-based conformance suite for the serving layer: submit /
// status / result round-trips for all three job kinds, the budget-trip
// contract (best-so-far matching + tripped axis in the body), tenant
// budget clamping, structured 400s for malformed jobs, and the
// discovery/ops endpoints. The whole package runs under -race in CI.

package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// testOptions is the base solver configuration test servers run: the
// warm-friendly ε = 0.3 regime of E17, sequential workers for
// reproducibility on any box.
func testOptions() []match.Option {
	return []match.Option{match.WithEps(0.3), match.WithSeed(8), match.WithWorkers(1)}
}

// startServer builds a Server plus an httptest front end and tears both
// down with the test.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Options == nil {
		cfg.Options = testOptions()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// testGraph is the pinned instance most tests solve.
func testGraph(seed uint64) *graph.Graph {
	return graph.GNM(40, 240, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, seed)
}

// edgesSpec renders a graph as the inline-edge-list source kind.
func edgesSpec(g *graph.Graph) SourceSpec {
	spec := SourceSpec{Kind: "edges", N: g.N()}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, []float64{float64(e.U), float64(e.V), e.W})
	}
	return spec
}

// rbg1Spec renders a graph as the uploaded-binary source kind.
func rbg1Spec(t *testing.T, g *graph.Graph) SourceSpec {
	t.Helper()
	var buf bytes.Buffer
	if err := stream.WriteBinary(&buf, stream.NewEdgeStream(g)); err != nil {
		t.Fatal(err)
	}
	return SourceSpec{Kind: "rbg1", DataBase64: base64.StdEncoding.EncodeToString(buf.Bytes())}
}

// genSpec is a named generator spec matching testGraph's scale.
func genSpec(seed uint64) SourceSpec {
	return SourceSpec{Kind: "gen", N: 40, M: 240, Weights: "uniform", WMax: 25, Seed: seed}
}

// postJSON posts a document and returns status code and body.
func postJSON(t *testing.T, url string, doc any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// getJSON fetches a URL and decodes the body into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

// waitDone polls the status endpoint until the job is terminal.
func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.Status == stateDone || st.Status == stateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (status %s)", id, st.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// submitJob posts to /v1/jobs and returns the accepted job id.
func submitJob(t *testing.T, base string, spec JobSpec) string {
	t.Helper()
	code, body := postJSON(t, base+"/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, body %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("submit: no job id in %s", body)
	}
	return st.ID
}

// TestJobKindsRoundTrip pins the submit → status → result loop for all
// three source kinds, and that every kind solves the same instance to
// the same weight as an in-process solve of that instance.
func TestJobKindsRoundTrip(t *testing.T) {
	g := testGraph(3)
	want, err := match.Solve(t.Context(), stream.NewEdgeStream(g), testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	// The edges and rbg1 specs encode the identical instance; disable
	// warm reuse so every kind pins the cold pass count.
	_, ts := startServer(t, Config{WarmCacheSize: -1})
	kinds := map[string]SourceSpec{
		"edges": edgesSpec(g),
		"rbg1":  rbg1Spec(t, g),
	}
	for kind, src := range kinds {
		t.Run(kind, func(t *testing.T) {
			id := submitJob(t, ts.URL, JobSpec{Source: src})
			st := waitDone(t, ts.URL, id)
			if st.Status != stateDone {
				t.Fatalf("status = %s (error %+v), want done", st.Status, st.Error)
			}
			if st.Result == nil {
				t.Fatal("done job carries no result")
			}
			if st.Result.Weight != want.Weight {
				t.Errorf("weight = %v, want %v (in-process)", st.Result.Weight, want.Weight)
			}
			if st.Result.Stats.Passes != want.Stats.Passes {
				t.Errorf("passes = %d, want %d", st.Result.Stats.Passes, want.Stats.Passes)
			}
			if st.Instance.N != g.N() || st.Instance.M != g.M() {
				t.Errorf("instance = %+v, want n=%d m=%d", st.Instance, g.N(), g.M())
			}
			// The result endpoint serves the same document once terminal.
			var res JobStatus
			if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &res); code != http.StatusOK {
				t.Fatalf("result: HTTP %d", code)
			}
			if res.Result == nil || res.Result.Weight != st.Result.Weight {
				t.Error("result endpoint disagrees with status endpoint")
			}
		})
	}
	t.Run("gen", func(t *testing.T) {
		// The generator kind solves its own replayed instance; pin it
		// against an in-process solve of the same GenSource.
		spec := genSpec(5)
		gsrc, err := stream.NewGen(stream.GenSpec{N: spec.N, M: spec.M,
			Weights: graph.WeightConfig{Mode: graph.UniformWeights, WMax: spec.WMax}, Seed: spec.Seed})
		if err != nil {
			t.Fatal(err)
		}
		want, err := match.Solve(t.Context(), gsrc, testOptions()...)
		if err != nil {
			t.Fatal(err)
		}
		id := submitJob(t, ts.URL, JobSpec{Source: spec})
		st := waitDone(t, ts.URL, id)
		if st.Status != stateDone || st.Result == nil {
			t.Fatalf("status = %s, result %v", st.Status, st.Result)
		}
		if st.Result.Weight != want.Weight {
			t.Errorf("weight = %v, want %v", st.Result.Weight, want.Weight)
		}
	})
}

// TestSyncSolve pins POST /v1/solve: one round trip, full document.
func TestSyncSolve(t *testing.T) {
	_, ts := startServer(t, Config{})
	code, body := postJSON(t, ts.URL+"/v1/solve", JobSpec{Source: edgesSpec(testGraph(4))})
	if code != http.StatusOK {
		t.Fatalf("HTTP %d, body %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != stateDone || st.Result == nil || st.Result.Weight <= 0 {
		t.Fatalf("sync solve returned %s, result %+v", st.Status, st.Result)
	}
	if st.Rounds == 0 {
		t.Error("sync solve reported zero rounds")
	}
}

// TestBudgetTripReturnsBestSoFar pins the budget contract over the
// wire: a job whose budget trips is still "done", its body carries the
// best-so-far matching and names the tripped axis.
func TestBudgetTripReturnsBestSoFar(t *testing.T) {
	_, ts := startServer(t, Config{})
	spec := JobSpec{
		Source: edgesSpec(testGraph(3)),
		Budget: match.Budget{Rounds: 2}, // the ε=0.3 cold solve needs ~21
	}
	id := submitJob(t, ts.URL, spec)
	st := waitDone(t, ts.URL, id)
	if st.Status != stateDone {
		t.Fatalf("status = %s, want done (budget trip is a bounded answer)", st.Status)
	}
	if st.BudgetExceeded == nil {
		t.Fatal("no budgetExceeded in the body")
	}
	if st.BudgetExceeded.Axis != match.AxisRounds {
		t.Errorf("axis = %q, want %q", st.BudgetExceeded.Axis, match.AxisRounds)
	}
	if st.Result == nil {
		t.Fatal("budget-tripped job carries no best-so-far result")
	}
	if st.Result.Stats.SamplingRounds > 2 {
		t.Errorf("rounds consumed = %d, budget was 2", st.Result.Stats.SamplingRounds)
	}
}

// TestTenantBudgetClamp pins per-tenant admission policy: a tenant's
// cap binds even when the job asks for more (or for nothing).
func TestTenantBudgetClamp(t *testing.T) {
	_, ts := startServer(t, Config{
		TenantBudgets: map[string]match.Budget{"capped": {Rounds: 2}},
	})
	// The capped tenant requests an unlimited budget and still trips.
	id := submitJob(t, ts.URL, JobSpec{Tenant: "capped", Source: edgesSpec(testGraph(3))})
	st := waitDone(t, ts.URL, id)
	if st.BudgetExceeded == nil || st.BudgetExceeded.Axis != match.AxisRounds {
		t.Fatalf("capped tenant: budgetExceeded = %+v, want rounds trip", st.BudgetExceeded)
	}
	// An unknown tenant is uncapped (no DefaultBudget configured).
	id = submitJob(t, ts.URL, JobSpec{Tenant: "free", Source: edgesSpec(testGraph(3))})
	if st = waitDone(t, ts.URL, id); st.BudgetExceeded != nil {
		t.Fatalf("uncapped tenant tripped: %+v", st.BudgetExceeded)
	}
}

func TestClampBudget(t *testing.T) {
	cases := []struct {
		req, cap, want match.Budget
	}{
		{match.Budget{}, match.Budget{}, match.Budget{}},
		{match.Budget{Rounds: 5}, match.Budget{}, match.Budget{Rounds: 5}},
		{match.Budget{}, match.Budget{Rounds: 3}, match.Budget{Rounds: 3}},
		{match.Budget{Rounds: 5}, match.Budget{Rounds: 3}, match.Budget{Rounds: 3}},
		{match.Budget{Rounds: 2}, match.Budget{Rounds: 3}, match.Budget{Rounds: 2}},
		{match.Budget{Passes: 9, SpaceWords: 100}, match.Budget{Rounds: 3, SpaceWords: 50},
			match.Budget{Passes: 9, Rounds: 3, SpaceWords: 50}},
	}
	for i, c := range cases {
		if got := clampBudget(c.req, c.cap); got != c.want {
			t.Errorf("case %d: clamp(%+v, %+v) = %+v, want %+v", i, c.req, c.cap, got, c.want)
		}
	}
}

// TestMalformedJobs pins the structured-400 contract: every bad job is
// rejected at admission with a machine-readable code, never queued.
func TestMalformedJobs(t *testing.T) {
	spool := t.TempDir()
	t.Setenv("TMPDIR", spool)
	_, ts := startServer(t, Config{})
	var huge bytes.Buffer
	if err := stream.WriteBinary(&huge, stream.NewEdgeStream(testGraph(3))); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(huge.Bytes()[8:], 1<<40) // header n
	errCode := func(body []byte) string {
		var doc struct {
			Error ErrorDoc `json:"error"`
		}
		json.Unmarshal(body, &doc)
		return doc.Error.Code
	}
	t.Run("syntax", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest || errCode(body) != "invalid_json" {
			t.Fatalf("HTTP %d code %q, want 400 invalid_json", resp.StatusCode, errCode(body))
		}
	})
	bad := []struct {
		name string
		spec JobSpec
	}{
		{"unknown-kind", JobSpec{Source: SourceSpec{Kind: "magic"}}},
		{"edges-no-n", JobSpec{Source: SourceSpec{Kind: "edges", Edges: [][]float64{{0, 1, 2}}}}},
		{"edges-bad-triple", JobSpec{Source: SourceSpec{Kind: "edges", N: 4, Edges: [][]float64{{0, 1}}}}},
		{"edges-fractional-endpoint", JobSpec{Source: SourceSpec{Kind: "edges", N: 4, Edges: [][]float64{{0.5, 1, 2}}}}},
		{"edges-out-of-range", JobSpec{Source: SourceSpec{Kind: "edges", N: 4, Edges: [][]float64{{0, 9, 2}}}}},
		{"edges-bad-b", JobSpec{Source: SourceSpec{Kind: "edges", N: 2, Edges: [][]float64{{0, 1, 2}}, B: []int{1}}}},
		{"gen-no-m", JobSpec{Source: SourceSpec{Kind: "gen", N: 10}}},
		{"gen-bad-weights", JobSpec{Source: SourceSpec{Kind: "gen", N: 10, M: 5, Weights: "zipf"}}},
		{"rbg1-empty", JobSpec{Source: SourceSpec{Kind: "rbg1"}}},
		{"rbg1-bad-base64", JobSpec{Source: SourceSpec{Kind: "rbg1", DataBase64: "!!!"}}},
		{"rbg1-bad-magic", JobSpec{Source: SourceSpec{Kind: "rbg1",
			DataBase64: base64.StdEncoding.EncodeToString([]byte("not an rbg1 file at all......"))}}},
		{"edges-huge-n", JobSpec{Source: SourceSpec{Kind: "edges", N: 1 << 40, Edges: [][]float64{{0, 1, 1}}}}},
		{"gen-huge-n", JobSpec{Source: SourceSpec{Kind: "gen", N: 1 << 40, M: 1}}},
		{"gen-huge-m", JobSpec{Source: SourceSpec{Kind: "gen", N: 10, M: 1 << 40}}},
		{"rbg1-huge-n", JobSpec{Source: SourceSpec{Kind: "rbg1", DataBase64: base64.StdEncoding.EncodeToString(huge.Bytes())}}},
		{"bad-eps", JobSpec{Eps: 0.9, Source: SourceSpec{Kind: "gen", N: 10, M: 5}}},
		{"bad-algorithm", JobSpec{Algorithm: "quantum", Source: SourceSpec{Kind: "gen", N: 10, M: 5}}},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			code, body := postJSON(t, ts.URL+"/v1/jobs", c.spec)
			if code != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400; body %s", code, body)
			}
			if got := errCode(body); got != "invalid_job" {
				t.Errorf("error code = %q, want invalid_job", got)
			}
		})
	}
	if left, _ := filepath.Glob(filepath.Join(spool, "matchd-*.rbg")); len(left) > 0 {
		t.Errorf("rejected uploads left spool files behind: %v", left)
	}
}

// TestCorruptUploadRejected pins admission of an RBG1 upload whose
// header is valid but whose first record names vertex n: the
// fingerprint sweep hits the corrupt record, and the job must be
// refused with a structured 400 and its spool file removed, not kill
// the request.
func TestCorruptUploadRejected(t *testing.T) {
	spool := t.TempDir()
	t.Setenv("TMPDIR", spool)
	_, ts := startServer(t, Config{})
	g := testGraph(3)
	var buf bytes.Buffer
	if err := stream.WriteBinary(&buf, stream.NewEdgeStream(g)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	const firstRecord = 24 // unit capacities: no capacity table
	binary.LittleEndian.PutUint32(raw[firstRecord:], uint32(g.N()))
	spec := JobSpec{Source: SourceSpec{Kind: "rbg1", DataBase64: base64.StdEncoding.EncodeToString(raw)}}
	code, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	var doc struct {
		Error ErrorDoc `json:"error"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("body is not an error document: %v\n%s", err, body)
	}
	if code != http.StatusBadRequest || doc.Error.Code != "invalid_job" {
		t.Fatalf("HTTP %d code %q, want 400 invalid_job; body %s", code, doc.Error.Code, body)
	}
	left, err := filepath.Glob(filepath.Join(spool, "matchd-*.rbg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("rejected upload left its spool file behind: %v", left)
	}
}

// TestUnknownJob404s pins the not-found contract for all job readers.
func TestUnknownJob404s(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, path := range []string{"/v1/jobs/j-000099", "/v1/jobs/j-000099/result", "/v1/jobs/j-000099/events"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, code)
		}
	}
}

// TestAlgorithmsEndpoint pins discovery: the algorithm table over the
// wire matches match.Algorithms entry for entry, key for key.
func TestAlgorithmsEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{})
	var doc struct {
		Default    string            `json:"default"`
		Algorithms []json.RawMessage `json:"algorithms"`
	}
	if code := getJSON(t, ts.URL+"/v1/algorithms", &doc); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if doc.Default != match.DefaultAlgorithm {
		t.Errorf("default = %q, want %q", doc.Default, match.DefaultAlgorithm)
	}
	want := match.Algorithms()
	if len(doc.Algorithms) != len(want) {
		t.Fatalf("%d algorithms on the wire, %d in process", len(doc.Algorithms), len(want))
	}
	// Each entry must decode to the in-process Info and carry exactly
	// the wire keys (decoding alone matches keys case-insensitively).
	for i, raw := range doc.Algorithms {
		var info match.AlgorithmInfo
		var fields map[string]any
		if err := json.Unmarshal(raw, &info); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		if info != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, info, want[i])
		}
		if keys := slices.Sorted(maps.Keys(fields)); !slices.Equal(keys, []string{"guarantee", "model", "name", "resources"}) {
			t.Errorf("entry %d keys = %v", i, keys)
		}
	}
}

// TestHealthz pins the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
}

// TestMetricsEndpoint pins the Prometheus surface: after a handful of
// solves the counters, the histogram and the p99 gauge are present and
// consistent.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{})
	const jobs = 3
	for i := 0; i < jobs; i++ {
		id := submitJob(t, ts.URL, JobSpec{Source: genSpec(uint64(i))})
		waitDone(t, ts.URL, id)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("content type = %q", resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		fmt.Sprintf("matchd_jobs_admitted_total %d", jobs),
		fmt.Sprintf(`matchd_solves_total{status="ok"} %d`, jobs),
		fmt.Sprintf("matchd_solve_seconds_count %d", jobs),
		"matchd_solve_seconds_p99",
		"matchd_queue_depth 0",
		"matchd_pool_sessions 2",
		"matchd_pool_inflight 0",
		`matchd_budget_trips_total{axis="rounds"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}
