// The wire codec: the JSON job envelope callers POST, the status
// document they read back, and the translation of both into the match
// package's types. Handlers never touch match options directly and the
// queueing machinery never touches JSON — this file is the seam a
// second protocol (gRPC) would reimplement.

package serve

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// JobSpec is the wire form of one solve job (the body of POST /v1/jobs
// and POST /v1/solve). Zero-valued fields inherit the server's base
// solver configuration.
type JobSpec struct {
	// Tenant names the submitting tenant; it selects the budget cap the
	// server clamps this job's budget to.
	Tenant string `json:"tenant,omitempty"`
	// Algorithm selects a registry algorithm ("" = server default).
	Algorithm string `json:"algorithm,omitempty"`
	// Eps overrides the accuracy target ε (0 = server default).
	Eps float64 `json:"eps,omitempty"`
	// SpaceExponent overrides the space exponent p (0 = server default).
	SpaceExponent float64 `json:"spaceExponent,omitempty"`
	// Seed overrides the solve seed (nil = server default).
	Seed *uint64 `json:"seed,omitempty"`
	// Budget bounds the solve's resources; it is clamped against the
	// tenant's cap. Zero axes are unlimited (up to the cap).
	Budget match.Budget `json:"budget,omitempty"`
	// WarmStart opts in/out of warm-dual reuse via the server's
	// fingerprint cache (nil = on, for the dual-primal algorithm).
	WarmStart *bool `json:"warmStart,omitempty"`
	// Source describes the instance.
	Source SourceSpec `json:"source"`
}

// SourceSpec is the wire form of an instance: exactly one of the three
// kinds the serving layer accepts.
type SourceSpec struct {
	// Kind is "edges" (inline edge list), "gen" (named generator spec)
	// or "rbg1" (uploaded RBG1 binary).
	Kind string `json:"kind"`

	// N is the vertex count (kinds "edges" and "gen").
	N int `json:"n,omitempty"`
	// Edges holds [u, v, w] triples (kind "edges"); u and v are
	// 0-based vertex indices.
	Edges [][]float64 `json:"edges,omitempty"`
	// B holds optional per-vertex capacities, length N (kind "edges").
	B []int `json:"b,omitempty"`

	// M is the edge count (kind "gen").
	M int `json:"m,omitempty"`
	// Weights selects the edge-weight law: unit|uniform|powers|exp
	// (kind "gen"; default uniform).
	Weights string `json:"weights,omitempty"`
	// WMax is the maximum weight for the uniform law (kind "gen").
	WMax float64 `json:"wmax,omitempty"`
	// Seed drives the generator (kind "gen").
	Seed uint64 `json:"seed,omitempty"`
	// BMax > 1 assigns pseudo-random capacities in [1, BMax] (kind "gen").
	BMax int `json:"bmax,omitempty"`

	// DataBase64 is the base64-encoded RBG1 file content (kind "rbg1").
	// The server spools it to a temp file and solves it out-of-core.
	DataBase64 string `json:"dataBase64,omitempty"`
}

// ErrorDoc is the structured error body every non-2xx response carries
// (wrapped as {"error": {...}}).
type ErrorDoc struct {
	// Code is a stable machine-readable cause: invalid_json, invalid_job,
	// queue_full, server_closed, not_found, not_done, unsupported,
	// canceled, solve_failed.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// Instance summarizes the decoded instance in job status documents.
type Instance struct {
	N      int `json:"n"`
	M      int `json:"m"`
	TotalB int `json:"totalB"`
}

// JobStatus is the wire form of a job's state (GET /v1/jobs/{id}, the
// body of a finished POST /v1/solve, and the SSE terminal event).
type JobStatus struct {
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant,omitempty"`
	Status    string   `json:"status"` // queued | running | done | failed
	Algorithm string   `json:"algorithm"`
	Instance  Instance `json:"instance"`
	// Rounds counts the Observer events delivered so far (it grows while
	// the job runs).
	Rounds int `json:"rounds"`
	// WarmHit reports that the solve was seeded from the warm-dual
	// fingerprint cache.
	WarmHit bool `json:"warmHit,omitempty"`
	// QueueMS and SolveMS are the measured queue wait and solve wall
	// time (SolveMS only once the job finished).
	QueueMS float64 `json:"queueMs,omitempty"`
	SolveMS float64 `json:"solveMs,omitempty"`
	// Result is the solve's outcome (done jobs; also present on failed
	// jobs that aborted with a best-so-far matching).
	Result *match.Result `json:"result,omitempty"`
	// BudgetExceeded names the tripped axis when the job ran out of
	// budget — the Result then holds the best-so-far matching and the
	// job still counts as done.
	BudgetExceeded *match.BudgetError `json:"budgetExceeded,omitempty"`
	// Error is set on failed jobs.
	Error *ErrorDoc `json:"error,omitempty"`
}

// Job states and solve-outcome metric labels.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"

	solveOK       = "ok"
	solveBudget   = "budget"
	solveCanceled = "canceled"
	solveFailed   = "failed"
)

// job is one admitted solve: the decoded spec, the built Source, the
// per-job options, and the observable state machine (queued → running →
// done|failed) the status/result/SSE handlers read. The job itself is
// the solve's Observer: events append under mu and cond broadcasts to
// SSE followers and synchronous waiters.
type job struct {
	id           string
	tenant       string
	algo         string
	src          match.Source
	cleanup      func()
	inst         Instance
	opts         []match.Option // spec-derived extras (eps, seed, algorithm, ...)
	budget       match.Budget   // clamped against the tenant cap
	fp           fpKey
	warmEligible bool
	ctx          context.Context

	mu          sync.Mutex
	cond        *sync.Cond
	state       string
	solveStatus string // metric label, set with state done/failed
	events      []match.RoundEvent
	result      *match.Result
	budgetErr   *match.BudgetError
	errDoc      *ErrorDoc
	warmHit     bool
	queuedAt    time.Time
	startedAt   time.Time
	doneAt      time.Time
}

// buildJob decodes a spec into a runnable job: source construction,
// option mapping, validation (via match.New on the combined options, so
// a job that admits never fails for configuration reasons), tenant
// budget clamping and — when warm-eligible — the instance fingerprint.
// ctx bounds the job's whole lifetime (Background for async jobs, the
// request context for synchronous ones). The returned *ErrorDoc is nil
// exactly when the job is runnable.
func (s *Server) buildJob(ctx context.Context, spec *JobSpec) (*job, *ErrorDoc) {
	src, cleanup, errDoc := s.buildSource(&spec.Source)
	if errDoc != nil {
		return nil, errDoc
	}
	j := &job{
		tenant:   spec.Tenant,
		algo:     spec.Algorithm,
		src:      src,
		cleanup:  cleanup,
		inst:     Instance{N: src.N(), M: src.Len(), TotalB: src.TotalB()},
		ctx:      ctx,
		state:    stateQueued,
		queuedAt: time.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	if j.algo == "" {
		j.algo = s.defaultAlgo
	}
	eps := s.defaultEps
	if spec.Eps != 0 {
		eps = spec.Eps
		j.opts = append(j.opts, match.WithEps(spec.Eps))
	}
	if spec.SpaceExponent != 0 {
		j.opts = append(j.opts, match.WithSpaceExponent(spec.SpaceExponent))
	}
	if spec.Seed != nil {
		j.opts = append(j.opts, match.WithSeed(*spec.Seed))
	}
	if spec.Algorithm != "" {
		j.opts = append(j.opts, match.WithAlgorithm(spec.Algorithm))
	}
	j.budget = clampBudget(spec.Budget, s.tenantCap(spec.Tenant))
	if err := s.validateJob(j); err != nil {
		j.discard()
		return nil, &ErrorDoc{Code: "invalid_job", Message: err.Error()}
	}
	warmWanted := spec.WarmStart == nil || *spec.WarmStart
	if warmWanted && s.warm != nil && j.algo == match.DefaultAlgorithm {
		fp, err := fingerprint(&spec.Source, src, j.algo, eps)
		if err != nil {
			j.discard()
			return nil, &ErrorDoc{Code: "invalid_job", Message: fmt.Sprintf("source cannot be read: %v", err)}
		}
		j.fp, j.warmEligible = fp, true
	}
	return j, nil
}

// validateJob runs the combined option set through match.New so every
// configuration error surfaces as a 400 at admission, never as a failed
// job later.
func (s *Server) validateJob(j *job) error {
	opts := append(append([]match.Option{}, s.cfg.Options...), j.opts...)
	opts = append(opts, match.WithBudget(j.budget))
	_, err := s.probeSolver(opts)
	return err
}

// probeSolver exists as a seam for validateJob; match.New carries all
// the validation rules.
func (s *Server) probeSolver(opts []match.Option) (*match.Solver, error) {
	return match.New(opts...)
}

// tenantCap resolves the budget cap for a tenant: its TenantBudgets
// entry, else the server-wide default cap.
func (s *Server) tenantCap(tenant string) match.Budget {
	if cap, ok := s.cfg.TenantBudgets[tenant]; ok {
		return cap
	}
	return s.cfg.DefaultBudget
}

// clampBudget tightens a requested budget against a cap, axis by axis:
// an uncapped axis passes through, a capped axis is at most the cap
// (a zero = unlimited request collapses to the cap).
func clampBudget(req, cap match.Budget) match.Budget {
	clamp := func(want, limit int) int {
		if limit == 0 {
			return want
		}
		if want == 0 || want > limit {
			return limit
		}
		return want
	}
	return match.Budget{
		Passes:     clamp(req.Passes, cap.Passes),
		Rounds:     clamp(req.Rounds, cap.Rounds),
		SpaceWords: clamp(req.SpaceWords, cap.SpaceWords),
	}
}

// buildSource turns a SourceSpec into a Source plus its cleanup.
func (s *Server) buildSource(spec *SourceSpec) (match.Source, func(), *ErrorDoc) {
	bad := func(format string, a ...any) (match.Source, func(), *ErrorDoc) {
		return nil, nil, &ErrorDoc{Code: "invalid_job", Message: fmt.Sprintf(format, a...)}
	}
	if spec.N > maxJobVertices {
		return bad("source.n = %d exceeds the server's limit of %d vertices", spec.N, maxJobVertices)
	}
	switch spec.Kind {
	case "edges":
		if spec.N <= 0 {
			return bad("source.n must be >= 1 for kind edges, got %d", spec.N)
		}
		if len(spec.Edges) == 0 {
			return bad("source.edges must hold at least one [u, v, w] triple")
		}
		g := graph.New(spec.N)
		for i, e := range spec.Edges {
			if len(e) != 3 {
				return bad("source.edges[%d] must be a [u, v, w] triple, got %d elements", i, len(e))
			}
			u, v, w := e[0], e[1], e[2]
			if u != float64(int(u)) || v != float64(int(v)) {
				return bad("source.edges[%d] endpoints must be integers, got [%v, %v]", i, u, v)
			}
			if err := g.AddEdge(int(u), int(v), w); err != nil {
				return bad("source.edges[%d]: %v", i, err)
			}
		}
		if len(spec.B) > 0 {
			if len(spec.B) != spec.N {
				return bad("source.b must have length n=%d, got %d", spec.N, len(spec.B))
			}
			for v, b := range spec.B {
				if b < 1 {
					return bad("source.b[%d] = %d must be >= 1", v, b)
				}
				g.SetB(v, b)
			}
		}
		return stream.NewEdgeStream(g), nil, nil
	case "gen":
		gs, err := generatorSpec(spec)
		if err != nil {
			return bad("%v", err)
		}
		src, err := stream.NewGen(gs)
		if err != nil {
			return bad("source.gen: %v", err)
		}
		return src, nil, nil
	case "rbg1":
		if spec.DataBase64 == "" {
			return bad("source.dataBase64 must hold the RBG1 file content for kind rbg1")
		}
		raw, err := base64.StdEncoding.DecodeString(spec.DataBase64)
		if err != nil {
			return bad("source.dataBase64 is not valid base64: %v", err)
		}
		tmp, err := os.CreateTemp("", "matchd-*.rbg")
		if err != nil {
			return nil, nil, &ErrorDoc{Code: "solve_failed", Message: fmt.Sprintf("spooling upload: %v", err)}
		}
		path := tmp.Name()
		if _, err := tmp.Write(raw); err == nil {
			err = tmp.Close()
		} else {
			tmp.Close()
		}
		if err != nil {
			os.Remove(path)
			return nil, nil, &ErrorDoc{Code: "solve_failed", Message: fmt.Sprintf("spooling upload: %v", err)}
		}
		src, err := stream.OpenBinary(path)
		if err != nil {
			os.Remove(path)
			return bad("source.dataBase64 is not a valid RBG1 file: %v", err)
		}
		if src.N() > maxJobVertices {
			src.Close()
			os.Remove(path)
			return bad("source.dataBase64 header n = %d exceeds the server's limit of %d vertices", src.N(), maxJobVertices)
		}
		return src, func() { src.Close(); os.Remove(path) }, nil
	default:
		return bad("source.kind must be edges, gen or rbg1, got %q", spec.Kind)
	}
}

// generatorSpec maps a gen source onto the stream.GenSpec its edges are
// a pure function of.
func generatorSpec(spec *SourceSpec) (stream.GenSpec, error) {
	if spec.M <= 0 || spec.M > maxGenEdges {
		return stream.GenSpec{}, fmt.Errorf("source.m must be in [1, %d] for kind gen, got %d", maxGenEdges, spec.M)
	}
	wc, err := weightConfig(spec)
	if err != nil {
		return stream.GenSpec{}, err
	}
	return stream.GenSpec{N: spec.N, M: spec.M, Weights: wc, Seed: spec.Seed, BMax: spec.BMax}, nil
}

// weightConfig maps the wire weight-law name onto graph.WeightConfig
// (the same vocabulary matchsolve's -dist flag speaks).
func weightConfig(spec *SourceSpec) (graph.WeightConfig, error) {
	switch spec.Weights {
	case "", "uniform":
		return graph.WeightConfig{Mode: graph.UniformWeights, WMax: spec.WMax}, nil
	case "unit":
		return graph.WeightConfig{Mode: graph.UnitWeights}, nil
	case "powers":
		return graph.WeightConfig{Mode: graph.PowersOf}, nil
	case "exp":
		return graph.WeightConfig{Mode: graph.ExpWeights}, nil
	default:
		return graph.WeightConfig{}, fmt.Errorf("source.weights must be unit, uniform, powers or exp, got %q", spec.Weights)
	}
}

// OnRound implements match.Observer: the job retains every event so the
// SSE stream can replay the exact in-process sequence, late subscribers
// included.
func (j *job) OnRound(ev match.RoundEvent) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.mu.Unlock()
	j.cond.Broadcast()
}

// markRunning transitions queued → running at dispatch time.
func (j *job) markRunning() {
	j.mu.Lock()
	j.state = stateRunning
	j.startedAt = time.Now()
	j.mu.Unlock()
	j.cond.Broadcast()
}

// setWarmHit records that the dispatcher seeded this job from the
// fingerprint cache.
func (j *job) setWarmHit() {
	j.mu.Lock()
	j.warmHit = true
	j.mu.Unlock()
}

// finish classifies a solve outcome onto the job and wakes every
// waiter. A budget trip is a bounded answer — state done, with the
// tripped axis in the status document — matching the library contract.
func (j *job) finish(res *match.Result, err error) {
	j.mu.Lock()
	if j.startedAt.IsZero() {
		j.startedAt = time.Now()
	}
	j.doneAt = time.Now()
	j.result = res
	var be *match.BudgetError
	switch {
	case err == nil:
		j.state, j.solveStatus = stateDone, solveOK
	case errors.As(err, &be):
		j.state, j.solveStatus = stateDone, solveBudget
		j.budgetErr = be
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state, j.solveStatus = stateFailed, solveCanceled
		j.errDoc = &ErrorDoc{Code: "canceled", Message: err.Error()}
	case errors.Is(err, ErrServerClosed) || errors.Is(err, match.ErrPoolClosed):
		j.state, j.solveStatus = stateFailed, solveFailed
		j.errDoc = &ErrorDoc{Code: "server_closed", Message: ErrServerClosed.Error()}
	case errors.Is(err, match.ErrUnsupported):
		j.state, j.solveStatus = stateFailed, solveFailed
		j.errDoc = &ErrorDoc{Code: "unsupported", Message: err.Error()}
	default:
		j.state, j.solveStatus = stateFailed, solveFailed
		j.errDoc = &ErrorDoc{Code: "solve_failed", Message: err.Error()}
	}
	j.mu.Unlock()
	j.cond.Broadcast()
	j.discard()
}

// discard releases the job's source resources (the spooled RBG1 temp
// file); safe to call more than once.
func (j *job) discard() {
	if j.cleanup != nil {
		j.cleanup()
		j.cleanup = nil
	}
}

// eventCount returns how many Observer events the job has retained.
func (j *job) eventCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// snapshot renders the job's current state as the wire status document.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:             j.id,
		Tenant:         j.tenant,
		Status:         j.state,
		Algorithm:      j.algo,
		Instance:       j.inst,
		Rounds:         len(j.events),
		WarmHit:        j.warmHit,
		Result:         j.result,
		BudgetExceeded: j.budgetErr,
		Error:          j.errDoc,
	}
	if !j.startedAt.IsZero() {
		st.QueueMS = float64(j.startedAt.Sub(j.queuedAt).Microseconds()) / 1000
	}
	if !j.doneAt.IsZero() {
		st.SolveMS = float64(j.doneAt.Sub(j.startedAt).Microseconds()) / 1000
	}
	return st
}

// wait blocks until the job reaches a terminal state or ctx is done,
// returning the final status document. A second goroutine nudges the
// condition variable when ctx fires so the wait never outlives the
// caller.
func (j *job) wait(ctx context.Context) (JobStatus, error) {
	stop := context.AfterFunc(ctx, func() { j.cond.Broadcast() })
	defer stop()
	j.mu.Lock()
	for j.state != stateDone && j.state != stateFailed {
		if ctx.Err() != nil {
			j.mu.Unlock()
			return JobStatus{}, ctx.Err()
		}
		j.cond.Wait()
	}
	j.mu.Unlock()
	return j.snapshot(), nil
}
