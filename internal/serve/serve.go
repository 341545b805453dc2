// Package serve is the network serving layer over the match solver:
// the HTTP/JSON front end command matchd mounts. It puts a fleet of
// reusable solve sessions behind a socket — the paper's "heavy
// traffic" posture — while keeping the protocol layer deliberately
// thin: the wire codec (job.go) is separated from the handlers
// (handlers.go), which are separated from the queueing and solving
// machinery (this file), so a second protocol (gRPC) can reuse
// everything below the handlers.
//
// The serving pipeline is:
//
//	handler → admit (bounded FIFO queue, 429 + Retry-After when full)
//	        → PoolSize workers, each owning one match.Solver (a reusable
//	          solve session) and carrying one job at a time:
//	          warm-dual fingerprint lookup, the solve, result
//	          classification, warm-dual store, metrics
//
// A job waits in the admission queue and nowhere else: a worker takes
// the oldest job only once it has finished the last one, so at most
// QueueLimit jobs wait while PoolSize run.
//
// Every job's per-round Observer events are retained on the job and
// replayable, so the SSE stream (GET /v1/jobs/{id}/events) delivers the
// exact event sequence an in-process Observer would have seen — late
// subscribers included. Warm-dual reuse is keyed by an instance
// fingerprint (n, ΣB, m, ε, W*, content hash): a job whose fingerprint
// matches a completed solve starts from that solve's dual snapshot
// (WithInitialDuals) and converges in a round; any perturbation changes
// the fingerprint and falls back to the certified cold start.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/match"
)

// ErrServerClosed is the error jobs still queued in the admission queue
// are answered with when the server drains: their solve never started
// and never will. Jobs a worker has already started finish normally.
var ErrServerClosed = errors.New("serve: server closed before the job ran")

// Config parameterizes a Server. The zero value is runnable: two
// sessions, a 64-deep admission queue, default solver options, warm
// cache on.
type Config struct {
	// PoolSize is the number of workers in the fleet, each owning one
	// solve session (default 2).
	PoolSize int
	// QueueLimit bounds the admission queue: jobs beyond it are rejected
	// with 429 + Retry-After instead of queued (default 64). A server
	// holds at most QueueLimit + PoolSize jobs.
	QueueLimit int
	// Options is the base solver configuration every session is built
	// with (match.New options). WithWorkers is the fleet's worker budget
	// (0 = GOMAXPROCS): each session gets an equal share, at least 1.
	// Per-job spec fields override per job.
	Options []match.Option
	// DefaultBudget caps every job's resource budget when its tenant has
	// no entry in TenantBudgets; zero axes are uncapped.
	DefaultBudget match.Budget
	// TenantBudgets caps budgets per tenant name: a job may only tighten
	// its tenant's cap, never exceed it.
	TenantBudgets map[string]match.Budget
	// WarmCacheSize bounds the warm-dual fingerprint cache (default 256;
	// negative disables warm reuse entirely).
	WarmCacheSize int
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
}

// jobHistory bounds how many finished jobs remain queryable before the
// oldest are evicted.
const jobHistory = 1024

// Server is one serving instance: an admission queue, PoolSize workers
// with a solve session each, a warm-dual cache and a metrics registry
// behind an http.Handler. Create with New, mount Handler, stop with
// Close.
type Server struct {
	cfg         Config
	defaultEps  float64
	defaultAlgo string
	mux         *http.ServeMux
	queue       chan *job
	metrics     *metrics
	warm        *warmCache
	inFlight    atomic.Int64 // solves running on a worker's session

	mu      sync.Mutex
	closed  bool
	pending sync.WaitGroup // admits between the closed-check and their enqueue
	jobs    map[string]*job
	done    []string // finished job ids in completion order, for history eviction
	seq     int64

	draining atomic.Bool
	workers  sync.WaitGroup
}

// New builds and starts a Server (its PoolSize workers run until
// Close). The configuration is validated the same way match.New
// validates solver options.
func New(cfg Config) (*Server, error) {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 2
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	if cfg.WarmCacheSize == 0 {
		cfg.WarmCacheSize = 256
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	probe, err := match.New(cfg.Options...)
	if err != nil {
		return nil, err
	}
	per := max(1, parallel.Workers(probe.Workers())/cfg.PoolSize)
	opts := append(slices.Clip(cfg.Options), match.WithWorkers(per))
	solvers := make([]*match.Solver, cfg.PoolSize)
	for i := range solvers {
		if solvers[i], err = match.New(opts...); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:         cfg,
		defaultEps:  probe.Eps(),
		defaultAlgo: probe.Algorithm(),
		queue:       make(chan *job, cfg.QueueLimit),
		metrics:     newMetrics(),
		jobs:        make(map[string]*job),
	}
	if cfg.WarmCacheSize > 0 {
		s.warm = newWarmCache(cfg.WarmCacheSize)
	}
	s.mux = s.routes()
	s.workers.Add(cfg.PoolSize)
	for _, solver := range solvers {
		go s.work(solver)
	}
	return s, nil
}

// Handler returns the server's HTTP surface (see routes in handlers.go
// for the endpoint list).
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the server: no further job is admitted (submissions get
// 503), the jobs the workers are running finish and keep their results
// queryable, and every job still in the admission queue is failed with
// ErrServerClosed. Close returns once the workers have stopped; it is
// idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		s.draining.Store(true)
		s.pending.Wait()
		close(s.queue)
	}
	s.workers.Wait()
}

// admit registers the job and enqueues it, applying admission control:
// a full queue answers 429 (the caller adds Retry-After), a closed
// server 503. On success the job is queryable immediately.
func (s *Server) admit(j *job) (int, *ErrorDoc) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.discard()
		return http.StatusServiceUnavailable, &ErrorDoc{Code: "server_closed", Message: "server is shutting down"}
	}
	s.pending.Add(1)
	s.seq++
	j.id = fmt.Sprintf("j-%06d", s.seq)
	s.jobs[j.id] = j
	s.mu.Unlock()
	defer s.pending.Done()
	select {
	case s.queue <- j:
		s.metrics.admitted()
		return http.StatusAccepted, nil
	default:
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		s.metrics.rejected()
		j.discard()
		return http.StatusTooManyRequests, &ErrorDoc{
			Code:    "queue_full",
			Message: fmt.Sprintf("admission queue is full (%d jobs deep); retry later", s.cfg.QueueLimit),
		}
	}
}

// lookup returns a queryable job by id.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// work is one of the PoolSize workers, solving on its own session. It
// takes the oldest admitted job, solves it, does its bookkeeping and
// retires it, and only then takes the next: the admission queue is the
// one place a job waits, and a result reaches the warm cache before its
// worker looks up another job's seed. A job whose context ended while
// it was queued is answered with the context's error without a solve.
// During a drain the worker fails each job it takes instead.
func (s *Server) work(solver *match.Solver) {
	defer s.workers.Done()
	for j := range s.queue {
		// A drained job, and one whose context ended while it was
		// queued, settles without a solve: no warm lookup, no solve
		// sample.
		err := j.ctx.Err()
		if s.draining.Load() {
			err = ErrServerClosed
		}
		if err != nil {
			j.finish(nil, err)
			s.retire(j.id)
			continue
		}
		j.markRunning()
		extra := s.jobExtras(j)
		s.inFlight.Add(1)
		res, err := solver.Solve(j.ctx, j.src, extra...)
		s.inFlight.Add(-1)
		if j.warmEligible && s.warm != nil && err == nil && res != nil {
			s.warm.put(j.fp, res)
		}
		j.finish(res, err)
		j.mu.Lock()
		status, wall := j.solveStatus, j.doneAt.Sub(j.startedAt).Seconds()
		if j.budgetErr != nil {
			s.metrics.tripped(string(j.budgetErr.Axis))
		}
		j.mu.Unlock()
		s.metrics.solved(status, wall)
		s.retire(j.id)
	}
}

// jobExtras assembles the per-job options of a job's Solve call: the
// clamped budget, the job itself as the Observer (it retains every
// RoundEvent for the SSE stream), and — when the fingerprint cache
// holds a completed solve of the identical instance — the warm-dual
// seed.
func (s *Server) jobExtras(j *job) []match.Option {
	extra := append([]match.Option{}, j.opts...)
	if !j.budget.IsZero() {
		extra = append(extra, match.WithBudget(j.budget))
	}
	extra = append(extra, match.WithObserver(j))
	if j.warmEligible && s.warm != nil {
		if prev := s.warm.get(j.fp); prev != nil {
			extra = append(extra, match.WithInitialDuals(prev))
			j.setWarmHit()
			s.metrics.warm(true)
		} else {
			s.metrics.warm(false)
		}
	}
	return extra
}

// retire records a finished job for history eviction and drops the
// oldest finished jobs beyond jobHistory.
func (s *Server) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = append(s.done, id)
	for len(s.done) > jobHistory {
		delete(s.jobs, s.done[0])
		s.done = s.done[1:]
	}
}
