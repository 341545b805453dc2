// Package match is the public face of the reproduction of "Access to
// Data and Number of Iterations: Dual Primal Algorithms for Maximum
// Matching under Resource Constraints" (Ahn–Guha, SPAA 2015): a
// (1-ε)-approximate weighted nonbipartite maximum b-matching solver
// whose resource axes — passes over the data, adaptive rounds, central
// space — are explicit, enforceable inputs rather than post-hoc
// observations.
//
// A Solver is configured once with functional options and then run
// against any Source backend:
//
//	solver, err := match.New(
//	    match.WithEps(0.25),           // accuracy: (1-O(ε))·OPT
//	    match.WithSpaceExponent(2),    // central space ~ n^(1+1/p), O(p/ε) rounds
//	    match.WithSeed(42),
//	)
//	res, err := solver.Solve(ctx, src)
//
// Solve honors ctx cancellation and deadlines at pass and round
// boundaries on every backend (in-memory, file-backed, generator-backed,
// sharded). A Budget makes the paper's resource constraints binding: the
// engine stops the moment an axis runs out and returns the best-so-far
// matching together with a *BudgetError that errors.Is-matches
// ErrBudgetExceeded:
//
//	solver, _ := match.New(match.WithBudget(match.Budget{Rounds: 4}))
//	res, err := solver.Solve(ctx, src)
//	if errors.Is(err, match.ErrBudgetExceeded) {
//	    var be *match.BudgetError
//	    errors.As(err, &be) // be.Axis, be.Limit, be.Used
//	    // res.Matching is the best feasible matching found in 4 rounds
//	}
//
// An Observer streams the per-round dual trajectory (λ, β) and resource
// meters while the solve runs. The Result is a pure function of (edge
// sequence, options) for every backend and worker count, pinned by
// result digests over a 14-run corpus.
//
// The dual-primal solver is one entry of a fixed algorithm table:
// WithAlgorithm selects another (the semi-streaming greedy baselines,
// the simulated congested-clique protocol, exact Hopcroft–Karp; see
// Algorithms). Every entry is built from the same options and run by
// the same round-loop driver, so budgets, observers, cancellation and
// the Stats meters behave identically whichever substrate computes the
// matching:
//
//	res, err := match.Solve(ctx, src, match.WithAlgorithm("greedy"))
//
// A Solver is also a reusable session: repeated Solve calls reuse the
// previous solve's working memory with bit-identical results, and
// WithInitialDuals warm-starts a solve from a prior solution so
// repeats on the same or drifting instances converge in fewer rounds.
// For many instances in flight, give each goroutine its own Solver:
// each then keeps its own session. Command matchd serves such a fleet
// over HTTP.
package match

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stream"
)

// Source is the "access to data" abstraction a Solver consumes: a
// replayable, read-only edge sequence with explicit pass metering. Four
// backends ship with the module — stream.NewEdgeStream (in-memory),
// stream.OpenBinary (on-disk, out-of-core), stream.NewGen (replayed
// generator) and stream.Concat (sharded composition) — and all of them
// yield bit-identical Results on the same edge sequence.
type Source = stream.Source

// Default option values: a mid-accuracy, laptop-friendly configuration.
const (
	// DefaultEps is the accuracy target ε used when WithEps is not given.
	DefaultEps = 0.25
	// DefaultSpaceExponent is the space exponent p used when
	// WithSpaceExponent is not given.
	DefaultSpaceExponent = 2.0
	// DefaultSeed drives all randomness when WithSeed is not given.
	DefaultSeed = 1
)

// ErrInvalidOption is the sentinel wrapped by every option-validation
// error New returns.
var ErrInvalidOption = errors.New("match: invalid option")

// Solver is a configured solve. Its configuration is immutable after
// New; internally it caches one reusable algorithm instance (with the
// scratch it retains), so calling Solve repeatedly on one Solver
// reuses working memory instead of rebuilding every
// structure, with results bit-identical to a fresh Solver's (pinned by
// the engine conformance suite and the facade's reuse tests). Reuse
// alone cuts a repeat dual-primal solve's heap bytes 1.6× on a
// 48-vertex, 320-edge instance and 3.4× on 700 vertices and 6 000
// edges, and its allocation count 1.1–1.4×: the rounds still allocate
// their per-round results. The order-of-magnitude cuts come from
// chaining WithInitialDuals, which ends a repeat solve in one round.
//
// A Solver remains safe for concurrent Solve calls: the cached instance
// serves one solve at a time and concurrent callers transparently fall
// back to a fresh throwaway instance (same results, cold allocation
// cost). For a fleet of sessions serving many instances concurrently,
// hold one Solver per goroutine. The configured Observer is shared
// across concurrent solves and must tolerate that.
type Solver struct {
	opt    core.Options
	budget Budget
	obs    Observer
	algo   string
	warm   *engine.Duals
	cache  *sessionCache
}

// sessionCache holds the Solver's reusable algorithm instance behind a
// mutex. Acquisition uses TryLock: the point of the cache is saved
// allocation, never serialization, so a busy cache yields a fresh
// instance instead of a wait.
type sessionCache struct {
	mu  sync.Mutex
	alg engine.Algorithm
}

// New builds a Solver from functional options; unspecified knobs take
// the Default* values. All validation happens here — a non-nil Solver
// never fails to start for configuration reasons.
func New(opts ...Option) (*Solver, error) {
	s := &Solver{opt: core.Options{
		Eps:  DefaultEps,
		P:    DefaultSpaceExponent,
		Seed: DefaultSeed,
	}, algo: DefaultAlgorithm, cache: &sessionCache{}}
	for _, o := range opts {
		o(s)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate checks the full configuration; every failure wraps
// ErrInvalidOption.
func (s *Solver) validate() error {
	if !(s.opt.Eps > 0) || s.opt.Eps >= 0.5 {
		return fmt.Errorf("%w: eps %v outside (0, 0.5)", ErrInvalidOption, s.opt.Eps)
	}
	if !(s.opt.P > 1) {
		return fmt.Errorf("%w: space exponent %v must be > 1", ErrInvalidOption, s.opt.P)
	}
	if s.opt.Workers < 0 {
		return fmt.Errorf("%w: workers %d must be >= 0", ErrInvalidOption, s.opt.Workers)
	}
	if s.opt.MaxRounds < 0 {
		return fmt.Errorf("%w: max rounds %d must be >= 0", ErrInvalidOption, s.opt.MaxRounds)
	}
	if s.budget.Passes < 0 || s.budget.Rounds < 0 || s.budget.SpaceWords < 0 {
		return fmt.Errorf("%w: budget axes must be >= 0 (0 = unlimited), got %+v", ErrInvalidOption, s.budget)
	}
	if err := algos.Check(s.algo); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
	return nil
}

// Eps returns the configured accuracy target.
func (s *Solver) Eps() float64 { return s.opt.Eps }

// Workers returns the configured worker count (0 = GOMAXPROCS).
func (s *Solver) Workers() int { return s.opt.Workers }

// Algorithm returns the name of the algorithm this Solver runs.
func (s *Solver) Algorithm() string { return s.algo }

// Solve runs the configured algorithm over src — the dual-primal solver
// by default, or any algorithm of the table selected with
// WithAlgorithm. An algorithm that cannot serve the instance (e.g.
// hopcroft-karp on a nonbipartite graph) fails with an error matching
// ErrUnsupported.
//
// The context is checked at pass and round boundaries on every backend;
// once it is cancelled (or its deadline passes), in-flight sweeps abort
// within a constant number of edges and Solve returns ctx.Err() together
// with the best-so-far Result.
//
// A configured Budget is enforced at the same checkpoints, identically
// for every algorithm. On a trip, Solve returns the best-so-far Result
// and a *BudgetError matching ErrBudgetExceeded; Result.Matching is
// always feasible (every algorithm updates it only in whole,
// feasibility-preserving steps — the dual-primal solver by whole
// offline solutions) and Result.Stats meters what was actually
// consumed. An ample budget changes nothing: the run is bit-identical
// to an unbudgeted one.
//
// The Result is a pure function of (edge sequence, options): every
// backend serving the same sequence returns a bit-identical Result for
// any worker count — and a session-reused solve is bit-identical to a
// cold one.
//
// Per-solve options may be appended: they apply to this call only, on
// top of the Solver's configuration. Extras that leave the
// instance-defining knobs untouched (algorithm, eps, space exponent,
// seed, workers, max rounds, profile) — a per-job Budget, an Observer,
// WithInitialDuals — still reuse the cached instance; extras that change
// them run on a fresh instance for the call.
func (s *Solver) Solve(ctx context.Context, src Source, extra ...Option) (*Result, error) {
	run := s
	if len(extra) > 0 {
		c := *s
		for _, o := range extra {
			o(&c)
		}
		if err := c.validate(); err != nil {
			return nil, err
		}
		run = &c
	}
	var hook func(RoundEvent)
	if run.obs != nil {
		obs := run.obs
		hook = func(ev RoundEvent) { obs.OnRound(ev) }
	}
	// The cached instance is usable when the instance-defining
	// configuration is the base Solver's (budget, observer and warm
	// duals are per-run inputs, not instance state).
	alg, release, err := s.acquire(run, run.algo == s.algo && run.opt == s.opt)
	if err != nil {
		return nil, err
	}
	defer release()
	out, err := engine.Solve(ctx, alg, src, engine.Extensions{Budget: run.budget, Observer: hook, Warm: run.warm})
	if out == nil {
		return nil, err
	}
	return fromOutcome(out, run.opt.Eps), err
}

// acquire hands out the cached instance (building it on first use)
// when the configuration allows and no other solve holds it; otherwise
// a fresh throwaway instance for run's configuration. The release func
// must be called once the solve is done.
func (s *Solver) acquire(run *Solver, cacheable bool) (engine.Algorithm, func(), error) {
	if cacheable && s.cache.mu.TryLock() {
		if s.cache.alg == nil {
			alg, err := algos.New(run.algo, run.opt)
			if err != nil {
				s.cache.mu.Unlock()
				return nil, nil, err
			}
			s.cache.alg = alg
		}
		return s.cache.alg, s.cache.mu.Unlock, nil
	}
	alg, err := algos.New(run.algo, run.opt)
	if err != nil {
		return nil, nil, err
	}
	return alg, func() {}, nil
}

// Solve is the one-shot convenience path — match.New plus Solver.Solve
// in a single call. It is the glue every harness (the bench experiments,
// the examples, simple callers) shares:
//
//	res, err := match.Solve(ctx, stream.NewEdgeStream(g),
//	    match.WithEps(0.25), match.WithAlgorithm("greedy"))
//
// Build a Solver with New instead when one configuration runs many
// solves.
func Solve(ctx context.Context, src Source, opts ...Option) (*Result, error) {
	s, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return s.Solve(ctx, src)
}
