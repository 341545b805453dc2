package match

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// ErrPoolClosed is returned (through a job's result channel) by Submit
// calls made after Close.
var ErrPoolClosed = errors.New("match: pool is closed")

// JobResult is one submitted solve's outcome: the Result (best-so-far
// on budget trips and cancellations, exactly as Solver.Solve returns
// it) and the accompanying error, if any.
type JobResult struct {
	Result *Result
	Err    error
}

// poolJob is one queued solve.
type poolJob struct {
	ctx   context.Context
	src   Source
	extra []Option
	out   chan JobResult
}

// Pool is a fixed-size fleet of solve sessions serving many instances
// concurrently: the serving shape the scalable-auction line of work
// motivates (arXiv:2307.08979), stacked on this module's session reuse.
// NewPool starts size worker goroutines, each owning one Solver whose
// cached session persists across the jobs it serves, so a job reuses
// the scratch of the jobs before it exactly as sequential Solve calls
// on one Solver do (see Solver for what that saves).
//
// Scheduling is a single FIFO queue: jobs are served strictly in Submit
// order as workers free up, so no submitter can starve another
// (fairness is arrival order; per-job resource budgets bound how long
// any one job can hold a worker). The configured worker budget
// (WithWorkers, 0 = GOMAXPROCS) is shared by the fleet: each session
// gets an equal share (at least 1), so a size-J pool over W workers
// drives ~W goroutines total, not J·W.
//
// Every method is safe for concurrent use.
type Pool struct {
	jobs     chan *poolJob
	wg       sync.WaitGroup
	size     int
	inflight atomic.Int64

	mu      sync.Mutex
	closed  bool
	pending sync.WaitGroup // Submit calls between the closed-check and their enqueue
}

// PoolStats is a point-in-time snapshot of a Pool's serving state: how
// many sessions the fleet runs, how many accepted jobs wait for one,
// and how many solves are in flight right now. It is the introspection
// a serving layer scrapes into its metrics (queue depth feeds admission
// control and backpressure decisions); because the pool keeps moving
// while the snapshot is taken, the numbers are individually exact but
// only approximately simultaneous.
type PoolStats struct {
	// Sessions is the fixed number of worker sessions (NewPool's size).
	Sessions int
	// Queued counts jobs accepted by Submit that no session has picked
	// up yet.
	Queued int
	// InFlight counts solves currently running on a session.
	InFlight int
}

// Stats returns a snapshot of the pool's queue depth and in-flight
// solve count. Safe for concurrent use; cheap enough to call on every
// metrics scrape.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Sessions: p.size, Queued: len(p.jobs), InFlight: int(p.inflight.Load())}
}

// NewPool builds a pool of size sessions configured with opts (the same
// options New takes; WithWorkers is interpreted as the fleet-wide
// budget and divided across sessions). Solves begin when Submit is
// called; Close drains and stops the fleet.
func NewPool(size int, opts ...Option) (*Pool, error) {
	if size < 1 {
		return nil, fmt.Errorf("%w: pool size %d must be >= 1", ErrInvalidOption, size)
	}
	probe, err := New(opts...)
	if err != nil {
		return nil, err
	}
	per := parallel.Workers(probe.opt.Workers) / size
	if per < 1 {
		per = 1
	}
	p := &Pool{jobs: make(chan *poolJob, 4*size), size: size}
	for i := 0; i < size; i++ {
		solver, err := New(append(append([]Option{}, opts...), WithWorkers(per))...)
		if err != nil {
			return nil, err // unreachable: probe validated, WithWorkers(per) is valid
		}
		p.wg.Add(1)
		go p.serve(solver)
	}
	return p, nil
}

// Submit enqueues one solve and immediately returns a single-result
// channel (buffered: the receiver may read it whenever it likes). The
// job runs solver.Solve(ctx, src, extra...) on the next free session;
// per-job options — a budget, an observer, WithInitialDuals — apply to
// that job alone. The context covers the job's whole lifetime: a job
// cancelled while queued is answered with its context error without
// occupying a session, and one cancelled mid-solve aborts within a
// pass and yields the best-so-far result, exactly like Solver.Solve.
// When the queue is saturated, Submit blocks until there is room or ctx
// is cancelled. After Close, every Submit answers ErrPoolClosed.
func (p *Pool) Submit(ctx context.Context, src Source, extra ...Option) <-chan JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan JobResult, 1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		out <- JobResult{Err: ErrPoolClosed}
		close(out)
		return out
	}
	p.pending.Add(1)
	p.mu.Unlock()
	defer p.pending.Done()
	select {
	case p.jobs <- &poolJob{ctx: ctx, src: src, extra: extra, out: out}:
	case <-ctx.Done():
		out <- JobResult{Err: ctx.Err()}
		close(out)
	}
	return out
}

// Close stops the pool gracefully: no further Submit is accepted, every
// already-queued job is still served (jobs whose context is already
// cancelled are answered without solving), and Close returns once the
// last worker has drained. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.pending.Wait() // in-flight Submits finish their enqueue (or bail on ctx)
	close(p.jobs)
	p.wg.Wait()
}

// serve is one worker: one Solver, one cached session, jobs in FIFO
// order until the queue closes.
func (p *Pool) serve(s *Solver) {
	defer p.wg.Done()
	for job := range p.jobs {
		if err := job.ctx.Err(); err != nil {
			job.out <- JobResult{Err: err}
			close(job.out)
			continue
		}
		p.inflight.Add(1)
		res, err := s.Solve(job.ctx, job.src, job.extra...)
		p.inflight.Add(-1)
		job.out <- JobResult{Result: res, Err: err}
		close(job.out)
	}
}
