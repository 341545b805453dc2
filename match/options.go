package match

// Option configures a Solver at construction. Options are applied in
// order; New validates the final configuration and fails with
// ErrInvalidOption on nonsense, so a constructed Solver is always
// runnable.
type Option func(*Solver)

// WithEps sets the accuracy target ε: the solve aims at (1-O(ε))·OPT.
// Must lie in (0, 0.5). Default DefaultEps.
func WithEps(eps float64) Option {
	return func(s *Solver) { s.opt.Eps = eps }
}

// WithSpaceExponent sets the space exponent p > 1: central space scales
// as ~n^(1+1/p) words and adaptive rounds as O(p/ε). Default
// DefaultSpaceExponent.
func WithSpaceExponent(p float64) Option {
	return func(s *Solver) { s.opt.P = p }
}

// WithSeed sets the seed all randomness flows from; equal seeds give
// bit-identical Results. Default DefaultSeed.
func WithSeed(seed uint64) Option {
	return func(s *Solver) { s.opt.Seed = seed }
}

// WithWorkers shards the per-edge/per-vertex work of every sampling
// round across a worker pool: 0 = GOMAXPROCS, 1 = one worker, the
// solving goroutine. It does not bound the cores a solve uses: a
// file-backed source still decodes the blocks of each sequential pass
// ahead on idle cores, up to GOMAXPROCS. The Result is bit-identical for
// every worker count and core count — only wall-clock time changes.
func WithWorkers(n int) Option {
	return func(s *Solver) { s.opt.Workers = n }
}

// WithProfile selects the constant regime (Practical or Faithful, or a
// modified copy). The profile is copied; later mutation of p does not
// affect the Solver. Default: Practical(eps) for the configured ε.
func WithProfile(p Profile) Option {
	return func(s *Solver) {
		prof := p
		s.opt.Profile = &prof
	}
}

// WithMaxRounds overrides the algorithm's own O(p/ε) round budget τo
// (0 = derive from the profile). This redefines when the algorithm
// considers itself done and stops silently — it is an algorithmic knob,
// not a resource constraint. To bound rounds as an enforced resource
// with best-so-far semantics and an ErrBudgetExceeded trip, use
// WithBudget(Budget{Rounds: r}) instead.
func WithMaxRounds(r int) Option {
	return func(s *Solver) { s.opt.MaxRounds = r }
}

// WithBudget bounds the run's resources along the paper's three axes;
// zero axes are unlimited. See Budget and Solver.Solve for the trip
// semantics.
func WithBudget(b Budget) Option {
	return func(s *Solver) { s.budget = b }
}

// WithObserver registers an Observer for per-round events. Pass nil to
// clear. See Observer for the event contract.
func WithObserver(o Observer) Option {
	return func(s *Solver) { s.obs = o }
}

// WithInitialDuals requests a warm start from a prior solution: the
// dual-primal solver seeds its λ/β trajectory from prev's final dual
// state instead of building the initial solution from scratch, so
// repeated solves on the same or slowly drifting instances converge in
// fewer rounds and passes (observable per round through an Observer;
// Stats.WarmStarted reports whether the seed was installed).
//
// Validity is checked at solve time: the snapshot must address the same
// discretization (same vertex count, ε, maximum weight W* and total
// capacity B — the quantities that fully determine the level scheme).
// When it does not — or prev is nil, carries no duals, or came from a
// different algorithm — the solve falls back to the certified cold
// start; warm starting never fails a solve and never weakens the
// certificate, because λ and the dual objective are re-evaluated
// against the current instance every round regardless of where the
// starting duals came from.
//
// Algorithms other than the dual-primal solver have no duals and ignore
// the option. As a per-solve extra it composes with the cached session:
// solver.Solve(ctx, src, match.WithInitialDuals(prev)) reuses the
// session and warm-starts it.
func WithInitialDuals(prev *Result) Option {
	return func(s *Solver) {
		if prev == nil {
			s.warm = nil
			return
		}
		s.warm = prev.warm
	}
}
