package core

import (
	"context"
	"errors"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/levels"
	"repro/internal/matching"
	"repro/internal/parallel"
	"repro/internal/sparsify"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// Options configures the dual-primal solver.
type Options struct {
	// Eps is the accuracy target ε (result aims at (1-O(ε))·OPT).
	Eps float64
	// P is the space exponent p > 1: central space ~ n^(1+1/p), rounds
	// O(p/ε).
	P float64
	// Seed drives all randomness.
	Seed uint64
	// Profile selects the constant regime; nil means Practical(eps).
	Profile *Profile
	// MaxRounds overrides the round budget (0 = derive from profile).
	MaxRounds int
	// Workers shards the per-edge/per-vertex work of every sampling
	// round (promise-multiplier evaluation, deferred-sparsifier
	// construction, refinement reveals) across a worker pool:
	// 0 = GOMAXPROCS, 1 = exact sequential execution. The outcome is
	// bit-identical for every worker count — randomness is pre-split per
	// shard and shard outputs merge in deterministic order (see
	// internal/parallel); only wall-clock time changes. The sequential
	// oracle-use loop is untouched: that adaptivity is the quantity the
	// paper bounds, not an implementation artifact.
	Workers int
}

// solveChunkEdges is the staging-buffer granule of the fused sampling
// pass: edges are read from the Source in chunks of this size, promise
// multipliers are evaluated over the chunk in parallel shards, and the
// chunk is dispatched into the streaming sparsifier constructions. It is
// a constant so chunk boundaries — which never affect results anyway —
// are also independent of everything. The buffer is metered against the
// SpaceAccountant; it is the only per-round state whose size is not
// already bounded by the sample.
const solveChunkEdges = 1 << 12

// chunkEdge is one staged edge of the fused sampling pass.
type chunkEdge struct {
	u, v  int32
	k     int32 // weight level
	orig  int   // index in the source stream
	local int   // index within the level's own sequence
	w     float64
	sigma float64 // promise multiplier, filled per chunk
}

// dualPrimal is the paper's dual-primal solver (Algorithms 2/4) as an
// engine.Algorithm: Init runs the pre-loop passes (W* scan, level
// census, Lemma 20/21 initial solution, first λ evaluation) and Round is
// one sampling round — t deferred sparsifiers in a fused chunked pass,
// the offline solve on the sampled union, the sequential refine-and-use
// oracle loop, the λ re-evaluation. The engine.Run owns the accountant,
// pass meter, round counter, budgets, observer and warm-start request;
// this struct owns the dual state and everything derived from the
// instance.
type dualPrimal struct {
	opt   Options
	prof  Profile
	stats engine.Stats // this run's counters; the driver adds its meters

	// Instance-derived state, set by Init. state is nil until Init builds
	// this run's duals, so an abort before that point reports none;
	// Reset moves the previous run's state to spare, whose backing table
	// reuseOrNewState zeroes in place when the instance shape repeats.
	src        stream.Source
	eps        float64
	n, nl      int
	scheme     *levels.Scheme
	state      *dualState
	spare      *dualState
	rng        *xrand.RNG
	workers    int
	maxNorm    int
	gammaChi   float64
	tUses      int
	maxRounds  int
	target     float64
	mKept      float64
	liveLevels []int
	levelCount []int

	// The (use, level) job grid of one sampling round, fixed across
	// rounds: job (q, slot) owns the deferred construction for use q at
	// level liveLevels[slot].
	jobs        []defJob
	chunk       []chunkEdge
	levelCursor []int
	slotOf      []int
	// Per-slot index lists into the chunk, rebuilt per dispatch (backing
	// arrays reused): each (use, level) job walks only its own level's
	// edges rather than rescanning the whole chunk.
	bySlot [][]int32

	// Round-loop scratch retained across rounds and runs: the (use,
	// slot) grids of deferred builders and their sealed sparsifiers, and
	// the offline-solve union (its (source index, edge) list, subgraph
	// and solver buffers). All of it is rebuilt from scratch-equivalent
	// state each round; retention only removes the per-round make/alloc
	// traffic the allocation audit found here. Each builder owns what it
	// reuses — side-data slots, construction shells, forests, item and
	// reveal buffers — so the parallel jobs of a round never share one.
	batches  [][]*sparsify.DeferredBuilder
	batchBuf []*sparsify.DeferredBuilder
	defs     [][]*sparsify.Deferred
	defBuf   []*sparsify.Deferred
	union    []unionEdge
	sub      *graph.Graph
	offline  matching.OfflineScratch
	scratch  *oracleScratch // refine + oracle-loop working buffers

	// Trajectory and best-so-far primal state.
	lambda     float64
	beta       float64
	bestHat    float64
	bestWeight float64
	best       *matching.Matching
}

type defJob struct{ q, slot, k int }

// New validates the options and builds a fresh dual-primal solver
// instance, ready for engine.Solve.
func New(opt Options) (engine.Algorithm, error) {
	if !(opt.Eps > 0) || opt.Eps >= 0.5 {
		return nil, errors.New("core: Eps must be in (0, 0.5)")
	}
	if !(opt.P > 1) {
		return nil, errors.New("core: P must be > 1")
	}
	prof := Practical(opt.Eps)
	if opt.Profile != nil {
		prof = *opt.Profile
	}
	return &dualPrimal{opt: opt, prof: prof}, nil
}

// Reset prepares the solver for another run (the engine.Algorithm
// reuse contract): per-run results, duals-trajectory and convergence
// state clear; the retained scratch — the dual state's backing table,
// the per-level tables, the job grids with their deferred builders, the
// staging chunk and the union buffers/subgraph — stays warm for Init to
// zero and reuse (a builder an aborted run left mid-feed retires its
// unfinished constructions at its next Reset). The best-so-far matching
// is released, not truncated: the previous run's Outcome owns those
// slices.
func (a *dualPrimal) Reset() {
	a.stats = engine.Stats{}
	a.src = nil
	a.scheme = nil
	if a.state != nil {
		a.spare, a.state = a.state, nil
	}
	a.rng = nil
	a.liveLevels = a.liveLevels[:0]
	a.jobs = a.jobs[:0]
	a.chunk = a.chunk[:0]
	a.lambda, a.beta = 0, 0
	a.bestHat, a.bestWeight = 0, 0
	a.best = nil
}

// bOf adapts the source's capacities to the dual-state callbacks.
func (a *dualPrimal) bOf(v int) int { return a.src.B(v) }

// Init runs everything before the sampling loop. Checkpoints sit after
// every metered pass: a cancelled W* scan yields a garbage W* (typically
// 0), which must surface as ctx.Err() with the best-so-far result, not
// as a scheme-validation error.
func (a *dualPrimal) Init(_ context.Context, run *engine.Run, src stream.Source) error {
	a.src = src
	a.eps = a.opt.Eps
	a.n = src.N()

	// Pass: W* scan — the only instance statistic the discretization
	// needs that is not known a priori.
	wstar := stream.MaxWeight(src)
	if err := run.Check(); err != nil {
		return err
	}
	scheme, err := levels.NewScheme(a.eps, wstar, src.TotalB())
	if err != nil {
		// A degenerate instance (e.g. a custom backend serving only
		// zero-weight edges), not bad options: the documented non-nil
		// Outcome contract still holds, with the meters filled in.
		return err
	}
	a.scheme = scheme
	a.rng = xrand.New(a.opt.Seed)
	a.workers = parallel.Workers(a.opt.Workers)
	a.nl = scheme.NumLevels()
	a.maxNorm = int(math.Ceil(4 / a.eps))
	if a.prof.OddSetNormCap > 0 && a.maxNorm > a.prof.OddSetNormCap {
		a.maxNorm = a.prof.OddSetNormCap
	}
	if a.maxNorm < 3 {
		a.maxNorm = 3
	}

	// Pass: level census — how many edges live at each weight level. The
	// populated levels define the per-level filters of the initial
	// solution and the (use, level) sparsifier grid; the counts fix each
	// construction's subsampling depth.
	a.levelCount = resizeZeroed(a.levelCount, a.nl)
	stream.ForEachBlocks(src, func(_ int, edges []graph.Edge) bool {
		for i := range edges {
			if k, ok := scheme.Level(edges[i].W); ok {
				a.levelCount[k]++
			}
		}
		return true
	})
	a.liveLevels = a.liveLevels[:0]
	for k, cnt := range a.levelCount {
		if cnt > 0 {
			a.liveLevels = append(a.liveLevels, k)
		}
	}
	if err := run.Check(); err != nil {
		return err
	}

	// ---- Initial solution (Lemmas 12, 20, 21) or warm start ----
	a.state, a.spare = reuseOrNewState(a.spare, scheme, a.n, a.prof.ZPruneRel), nil
	// The init-solution seed split is consumed on both paths so the
	// per-round sampling seeds below stay aligned between warm and cold
	// runs of the same configuration.
	initRNG := a.rng.Split(1)
	if warm := run.Warm(); installable(warm, a.n, a.eps, scheme) {
		// Warm start: install the prior solution's duals in place of the
		// initial solution. The certificate is unaffected — λ and the
		// objective are re-evaluated against this instance below and
		// every round — only the trajectory's starting point moves.
		install(warm, a.state)
		a.stats.WarmStarted = true
	} else {
		a.stats.InitRounds = buildInitialSolution(src, a.liveLevels, scheme, a.prof, a.eps, a.opt.P,
			initRNG, run.Acct, a.state)
	}
	if err := run.Check(); err != nil {
		return err
	}

	// ---- Outer loop parameters (Algorithms 2/4) ----
	//lint:powtable once per Init (γ = n^(1/2p), Theorem 3), not a per-round cost
	a.gammaChi = math.Pow(float64(a.n), 1/(2*a.opt.P))
	if a.gammaChi < 2 {
		a.gammaChi = 2
	}
	if a.prof.ChiOverride > 0 {
		a.gammaChi = a.prof.ChiOverride
	}
	a.tUses = int(math.Ceil(math.Log(a.gammaChi) / a.eps))
	if a.tUses < 1 {
		a.tUses = 1
	}
	a.maxRounds = a.opt.MaxRounds
	if a.maxRounds == 0 {
		a.maxRounds = int(math.Ceil(3*a.opt.P/a.eps)) + 1
	}
	a.lambda = lambdaOf(src, scheme, a.state) // pass: initial λ evaluation
	if err := run.Check(); err != nil {
		return err
	}
	a.beta = a.state.Objective(a.bOf)
	if a.beta <= 0 {
		a.beta = 1e-12
	}
	a.target = 1 - 3*a.eps
	a.mKept = float64(src.Len())

	a.jobs = a.jobs[:0]
	for q := 0; q < a.tUses; q++ {
		for slot, k := range a.liveLevels {
			a.jobs = append(a.jobs, defJob{q: q, slot: slot, k: k})
		}
	}
	if a.chunk == nil {
		a.chunk = make([]chunkEdge, 0, solveChunkEdges)
	}
	a.levelCursor = resizeZeroed(a.levelCursor, a.nl)
	a.slotOf = resizeZeroed(a.slotOf, a.nl)
	for slot, k := range a.liveLevels {
		a.slotOf[k] = slot
	}
	a.bySlot = resizeRows(a.bySlot, len(a.liveLevels))

	// Round-loop scratch, sized once per run from the (use, level) grid
	// and the instance; a session's next run finds it warm. The builders
	// keep forests over n vertices, so a new n drops them (and the
	// sparsifiers that point into them) with the union subgraph.
	if a.sub == nil || a.sub.N() != a.n {
		a.sub = graph.New(a.n)
		clear(a.batchBuf[:cap(a.batchBuf)])
		clear(a.defBuf[:cap(a.defBuf)])
	}
	a.batches, a.batchBuf = grid(a.batches, a.batchBuf, a.tUses, len(a.liveLevels))
	a.defs, a.defBuf = grid(a.defs, a.defBuf, a.tUses, len(a.liveLevels))
	if a.scratch == nil {
		a.scratch = newOracleScratch()
	}
	return nil
}

// resizeRows reuses a slice-of-slices spine: the length becomes n, the
// surviving rows keep their backing arrays (callers truncate them with
// [:0] before refilling).
func resizeRows[T any](rows [][]T, n int) [][]T {
	for len(rows) < n {
		rows = append(rows, nil)
	}
	return rows[:n]
}

// grid carves an r×c grid of row views out of one flat buffer, reusing
// both allocations across runs. Entries from a previous round or run
// are left in place — every (row, col) cell is overwritten (or, for
// builders, Reset) before it is read in each round — and the cells
// beyond the grid are cleared, so a run with fewer jobs does not keep
// the rest alive.
func grid[T any](rows [][]T, buf []T, r, c int) ([][]T, []T) {
	if cap(buf) >= r*c {
		clear(buf[r*c : cap(buf)])
		buf = buf[:r*c]
	} else {
		buf = make([]T, r*c)
	}
	if cap(rows) >= r {
		rows = rows[:r]
	} else {
		rows = make([][]T, r)
	}
	for i := 0; i < r; i++ {
		rows[i] = buf[i*c : (i+1)*c : (i+1)*c]
	}
	return rows, buf
}

// Round runs one sampling round, or reports convergence. For ε >= 1/3
// the certificate target 1-3ε is non-positive and any dual point
// satisfies it; still run at least one sampling round so a matching is
// produced.
func (a *dualPrimal) Round(_ context.Context, run *engine.Run) (bool, error) {
	round := run.Rounds() // 0-based index of the round about to run
	if round >= a.maxRounds || (round > 0 && a.lambda >= a.target) {
		a.stats.EarlyStopped = a.lambda >= a.target
		return true, nil
	}
	run.Lambda, run.Beta = a.lambda, a.beta
	// The rounds budget trips inside BeginRound exactly when the loop
	// wants a round it is not allowed: a run that converges within
	// budget never trips.
	if err := run.BeginRound(); err != nil {
		return false, err
	}
	acct := run.Acct
	src := a.src
	scheme, state := a.scheme, a.state
	eps, wHat := a.eps, scheme.WHat

	// Outer covering parameters for this phase (Theorem 5 via
	// Corollary 6): α from the current λ, σ = ε/(4αρo).
	alpha := 2 * math.Log(a.mKept/eps) / (math.Max(a.lambda, 1e-9) * eps)
	boost := a.prof.SigmaBoost
	if boost <= 0 {
		boost = 1
	}
	sigma := eps / (4 * alpha * a.prof.OuterRho) * boost
	if sigma > 0.5 {
		sigma = 0.5
	}

	// Sample t deferred sparsifiers, per weight level (Lemma 11: the
	// union of per-class sparsifiers is the sparsifier we need), in
	// ONE fused chunked pass over the source: each staged chunk gets
	// its promise multipliers ς_e = exp(-α(cov_e/ŵ_k - λ))/ŵ_k
	// evaluated in parallel shards (the broadcast read-only dual
	// state, exactly as the distributed mappers would), then streams
	// into every (use, level) construction. The (use, level) pairs
	// are independent given their seeds, so the seeds are split
	// sequentially up front — in the exact order the sequential loop
	// would draw them — and the constructions consume the chunk
	// concurrently, each slotted at its (q, level) position. Nothing
	// of size m is ever materialized: the staging chunk is constant,
	// the constructions hold only their samples.
	for q := 0; q < a.tUses; q++ {
		for slot, k := range a.liveLevels {
			b := a.batches[q][slot]
			if b == nil {
				b = new(sparsify.DeferredBuilder)
				a.batches[q][slot] = b
			}
			if err := b.Reset(a.n, a.levelCount[k], a.gammaChi, sparsify.Config{
				Xi:   a.prof.SparsifierXi,
				K:    a.prof.SparsifierK,
				Seed: a.rng.Split(uint64(round*1000 + q*100 + k)).Uint64(),
			}); err != nil {
				return false, err
			}
		}
	}
	dispatch := func(buf []chunkEdge) {
		if len(buf) == 0 {
			return
		}
		parallel.ForEachShard(a.workers, len(buf), func(_ int, sh parallel.Range) {
			for i := sh.Lo; i < sh.Hi; i++ {
				ce := &buf[i]
				r := state.CoverageRatio(ce.u, ce.v, int(ce.k))
				ce.sigma = math.Exp(-alpha*(r-a.lambda)) / wHat(int(ce.k))
			}
		})
		for slot := range a.bySlot {
			a.bySlot[slot] = a.bySlot[slot][:0]
		}
		for i := range buf {
			slot := a.slotOf[buf[i].k]
			a.bySlot[slot] = append(a.bySlot[slot], int32(i))
		}
		parallel.Run(a.workers, len(a.jobs), func(ji int) {
			job := a.jobs[ji]
			b := a.batches[job.q][job.slot]
			for _, i := range a.bySlot[job.slot] {
				ce := &buf[i]
				b.Add(ce.local, ce.u, ce.v, ce.w, ce.orig, ce.sigma)
			}
		})
	}
	for k := range a.levelCursor {
		a.levelCursor[k] = 0
	}
	acct.Alloc(solveChunkEdges) // the staging buffer is central storage
	// Staging chunks cut at solveChunkEdges regardless of the delivered
	// block shape, so dispatch boundaries — and therefore every sampling
	// draw — are independent of the backend's block geometry.
	stream.ForEachBlocks(src, func(base int, edges []graph.Edge) bool {
		for i := range edges {
			e := edges[i]
			k, ok := scheme.Level(e.W)
			if !ok {
				continue
			}
			a.chunk = append(a.chunk, chunkEdge{
				u: e.U, v: e.V, k: int32(k),
				orig: base + i, local: a.levelCursor[k], w: e.W,
			})
			a.levelCursor[k]++
			if len(a.chunk) == solveChunkEdges {
				dispatch(a.chunk)
				a.chunk = a.chunk[:0]
			}
		}
		return true
	})
	if err := run.Check(); err != nil {
		return false, err
	}
	dispatch(a.chunk)
	a.chunk = a.chunk[:0]
	acct.Free(solveChunkEdges)
	// Seal the constructions (the criticalLevel scans fan out over
	// the job grid, each result landing in its own index-keyed slot —
	// defBuf is the flat backing of the defs grid and job ji owns cell
	// (q, slot) = (ji/L, ji%L) — so the merge order is job order for any
	// worker count). Finish also retires every construction, forests
	// included, into its builder for the next round.
	parallel.Run(a.workers, len(a.jobs), func(ji int) {
		a.defBuf[ji] = a.batches[a.jobs[ji].q][a.jobs[ji].slot].Finish()
	})
	sampledTotal := 0
	for _, d := range a.defBuf {
		sampledTotal += d.Size()
	}
	acct.Alloc(sampledTotal)
	if cur := acct.Current(); cur > a.stats.PeakSampleEdges {
		a.stats.PeakSampleEdges = cur
	}
	if err := run.Check(); err != nil {
		return false, err
	}

	// Offline solve on the union of sampled edges (Algorithm 2 step
	// 5); raise β on improvement (step 6). The stored Items carry
	// endpoints and original weights, so the union subgraph is built
	// from the samples alone — no lookback into the source. Every
	// sample of one source edge carries the same edge, so sorting the
	// samples by source index and dropping repeats yields the union in
	// source order. The list, subgraph and solver buffers are retained
	// scratch, rebuilt in place each round.
	union := a.union[:0]
	for q := range a.defs {
		for _, d := range a.defs[q] {
			for _, it := range d.Items() {
				union = append(union, unionEdge{orig: it.Orig, e: graph.Edge{U: it.U, V: it.V, W: it.W}})
			}
		}
	}
	sortUnion(union)
	union = slices.CompactFunc(union, func(x, y unionEdge) bool { return x.orig == y.orig })
	a.union = union
	a.stats.UnionSizes = append(a.stats.UnionSizes, len(union))
	sub := a.sub
	sub.Clear()
	for v := 0; v < a.n; v++ {
		if b := src.B(v); b != 1 {
			sub.SetB(v, b)
		}
	}
	for _, ue := range union {
		sub.MustAddEdge(int(ue.e.U), int(ue.e.V), ue.e.W)
	}
	cand, _ := a.offline.OfflineB(sub, matching.OfflineConfig{ExactLimit: a.prof.OfflineExactLimit})
	candHat := 0.0
	for ci, si := range cand.EdgeIdx {
		mult := 1
		if cand.Mult != nil {
			mult = cand.Mult[ci]
		}
		if hk, ok := scheme.Level(sub.Edge(si).W); ok {
			candHat += wHat(hk) * float64(mult)
		}
	}
	if candHat > a.bestHat*(1+eps/8) || (a.best == nil || a.best.Size() == 0) && candHat > 0 {
		a.stats.RoundOfBestMatching = round + 1
	}
	if candHat > a.bestHat {
		a.bestHat = candHat
		// Remap subgraph edge indices back to source indices.
		remap := &matching.Matching{Mult: []int{}}
		w := 0.0
		for ci, si := range cand.EdgeIdx {
			remap.EdgeIdx = append(remap.EdgeIdx, union[si].orig)
			mult := 1
			if cand.Mult != nil {
				mult = cand.Mult[ci]
			}
			remap.Mult = append(remap.Mult, mult)
			w += sub.Edge(si).W * float64(mult)
		}
		a.best = remap
		a.bestWeight = w
	}
	if candHat > a.beta {
		a.beta = candHat * (1 + eps)
	}

	// Sequential refinement and use of the t sparsifiers (the right
	// half of Figure 1: no further input access).
	for q := 0; q < a.tUses; q++ {
		support := refineBatch(a.defs[q], a.liveLevels, scheme, state, alpha, a.lambda, a.prof.StaleRefinement, a.workers, a.scratch)
		a.stats.OracleUses++
		mini := runMiniOracle(support, a.beta, eps, a.prof, a.bOf, wHat, a.nl, a.maxNorm, a.scratch)
		a.stats.MicroCalls += mini.microCalls
		a.stats.PackIters += mini.packIters
		if mini.matchingWitness {
			a.stats.WitnessEvents++
			a.beta *= 1 + eps
			continue
		}
		if !mini.answer.isZero() {
			state.Average(sigma, &mini.answer)
		}
	}
	// Every sparsifier of the round is consumed. Its buffers stay with
	// its builder for the next round, as capacity no accountant meters.
	acct.Free(sampledTotal)

	a.lambda = lambdaOf(src, scheme, state) // pass: λ re-evaluation
	if err := run.Check(); err != nil {
		return false, err
	}
	return false, nil
}

// Finish reports the best-so-far matching and the dual fields. It is
// the one block shared by the normal exit and every abort — a checkpoint
// can fire before the dual state exists, so nil state is legal. A budget
// trip fires only at pass/round boundaries, so its λ is the last
// completely evaluated one (0 if it tripped before any λ pass ran) and
// the certificate, when positive, stands; the driver zeroes λ for
// non-budget aborts (a cancellation can interrupt a λ pass mid-flight,
// leaving an unsound prefix-minimum).
func (a *dualPrimal) Finish(_ *engine.Run) (*matching.Matching, engine.Extras) {
	ex := engine.Extras{Weight: a.bestWeight, Lambda: a.lambda}
	if a.state != nil {
		a.stats.DualStateWords = a.n*a.nl + 4*len(a.state.zsets)
		ex.DualObjective = a.scheme.Unscale(a.state.Objective(a.bOf))
	}
	ex.Stats = a.stats
	ex.Duals = a.snapshotDuals()
	return a.best, ex
}

// lambdaOf computes λ = min over the source's kept edges of the
// normalized coverage (one metered pass; in the paper's models this is
// one round of sketch evaluation).
func lambdaOf(src stream.Source, scheme *levels.Scheme, state *dualState) float64 {
	lam := math.Inf(1)
	stream.ForEachBlocks(src, func(_ int, edges []graph.Edge) bool {
		for i := range edges {
			if k, ok := scheme.Level(edges[i].W); ok {
				if r := state.CoverageRatio(edges[i].U, edges[i].V, k); r < lam {
					lam = r
				}
			}
		}
		return true
	})
	return lam
}

// innerWorkers splits a worker budget between an outer job fan-out and
// the sharded work inside each job: with fewer jobs than workers the
// leftover pool goes to the jobs' internals. Never affects results —
// every layer is bit-identical for any worker count — only utilization.
func innerWorkers(workers, jobs int) int {
	if jobs < 1 || workers <= jobs {
		return 1
	}
	return workers / jobs
}

// refineBatch reveals current multipliers for the stored edges of one
// deferred batch (Definition 4's reveal step) and emits the support. The
// reveals work entirely from the stored Items — endpoints and levels
// travel with the sample, so no source access happens here (the right
// half of Figure 1). With stale=true (ablation) the sampling-time
// promise values carried in the Items are used instead, skipping the
// refinement. The per-level reveals run across the worker pool — every
// reveal is a read-only evaluation of the frozen dual state — and the
// per-level supports concatenate in level order, so the support is
// identical for any worker count.
func refineBatch(defs []*sparsify.Deferred, liveLevels []int,
	scheme *levels.Scheme, state *dualState, alpha, lambda float64,
	stale bool, workers int, sc *oracleScratch) []supportEdge {

	// The level fan-out is the outer parallelism; when there are fewer
	// levels than workers (single weight class is common for unit
	// weights) push the leftover pool down into the per-item reveals.
	// Each job writes only its own per-level row of the scratch, so the
	// retained buffers stay race-free.
	inner := innerWorkers(workers, len(defs))
	sc.perLevel = resizeRows(sc.perLevel, len(defs))
	parallel.Run(workers, len(defs), func(li int) {
		k := liveLevels[li]
		sp := defs[li].RefineWith(inner, func(it sparsify.Item) float64 {
			if stale {
				return it.Weight // the sampling-time promise value
			}
			r := state.CoverageRatio(it.U, it.V, k)
			return math.Exp(-alpha*(r-lambda)) / scheme.WHat(k)
		})
		out := sc.perLevel[li][:0]
		for _, item := range sp.Items {
			out = append(out, supportEdge{
				u: item.U, v: item.V, k: k,
				w:       item.Weight,
				origIdx: item.Orig,
			})
		}
		sc.perLevel[li] = out
	})
	support := sc.support[:0]
	for _, out := range sc.perLevel {
		support = append(support, out...)
	}
	sc.support = support
	return support
}

// buildInitialSolution computes per-level maximal b-matchings by
// filtering (Lemma 20) and installs the Lemma 21 assignment
// x_i(k) = r·ŵ_k on saturated vertices. Every live level is one class of
// one MaximalBMatchingFilter run, with its own pre-split seed: the
// levels share each round's sweeps of the source, no per-level subgraph
// is materialized, and each level holds O(n) residuals and its transient
// sample. The sweeps charge the source no pass; the levels run
// conceptually in parallel, so the rounds consumed are the max over
// levels. Each level's peak sample replays onto acct in level order
// afterwards, so acct's current and peak end up exactly as a sequential
// run of the levels leaves them.
func buildInitialSolution(src stream.Source, liveLevels []int, scheme *levels.Scheme,
	prof Profile, eps, p float64, rng *xrand.RNG, acct *stream.SpaceAccountant,
	state *dualState) int {

	r := prof.RInitFactor * eps
	seeds := make([]uint64, len(liveLevels))
	slot := make([]int, scheme.NumLevels())
	for k := range slot {
		slot[k] = -1
	}
	for i, k := range liveLevels {
		seeds[i] = rng.Split(uint64(k)).Uint64()
		slot[k] = i
	}
	_, stats := matching.MaximalBMatchingFilter(src, p, seeds, func(e graph.Edge) int {
		if k, ok := scheme.Level(e.W); ok {
			return slot[k]
		}
		return -1
	})
	maxRounds := 0
	var entries []xEntry
	for i, k := range liveLevels {
		st := stats[i]
		maxRounds = max(maxRounds, st.Rounds)
		for v, res := range st.FinalResidual {
			if res == 0 { // saturated at level k
				entries = append(entries, xEntry{v: int32(v), k: k, val: r * scheme.WHat(k)})
			}
		}
		// Replay: a sequential run holds each level's peak transiently
		// before freeing it all (filters free every allocation before
		// returning).
		acct.Alloc(st.PeakSample)
		acct.Free(st.PeakSample)
	}
	state.SetInit(entries)
	return maxRounds
}
