// Command matchd serves the dual-primal matching solver over HTTP: a
// fixed fleet of workers, each owning one reusable solve session (a
// match.Solver), behind a JSON API with admission control, per-tenant
// budgets, per-round SSE event streams, warm-dual reuse across
// fingerprint-identical instances and Prometheus metrics.
//
//	matchd -addr :8470                         # serve with defaults
//	matchd -pool 4 -queue 128 -eps 0.2         # a bigger fleet, tighter ε
//	matchd -max-rounds 50                      # cap every job's rounds
//
// The API (all JSON; see the README walkthrough):
//
//	POST /v1/jobs             submit a solve job, 202 + job id
//	POST /v1/solve            submit and wait for the result
//	GET  /v1/jobs/{id}        status (queued|running|done|failed)
//	GET  /v1/jobs/{id}/result final document (409 until terminal)
//	GET  /v1/jobs/{id}/events SSE stream of per-round solver events
//	GET  /v1/algorithms       the algorithm table
//	GET  /metrics             Prometheus text format
//	GET  /healthz             liveness
//
// A full admission queue answers 429 with Retry-After; budget-tripped
// jobs are "done" with the best-so-far matching and the tripped axis
// in the body. SIGINT/SIGTERM drain gracefully: running jobs finish,
// queued jobs are failed cleanly, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/match"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("matchd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8470", "listen address")
	pool := fs.Int("pool", 2, "solve sessions in the fleet")
	queueLimit := fs.Int("queue", 64, "admission queue depth before 429s")
	eps := fs.Float64("eps", 0.25, "default accuracy epsilon")
	p := fs.Float64("p", 2, "default space exponent p (> 1)")
	seed := fs.Uint64("seed", 1, "default solve seed")
	workers := fs.Int("workers", 0, "fleet-wide worker budget (0 = GOMAXPROCS)")
	algo := fs.String("algo", "", "default algorithm (empty = registry default)")
	warmCache := fs.Int("warm-cache", 256, "warm-dual fingerprint cache entries (negative disables)")
	maxPasses := fs.Int("max-passes", 0, "default per-job pass budget (0 = unlimited)")
	maxRounds := fs.Int("max-rounds", 0, "default per-job round budget (0 = unlimited)")
	maxWords := fs.Int("max-words", 0, "default per-job central-space budget in words (0 = unlimited)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := []match.Option{
		match.WithEps(*eps),
		match.WithSpaceExponent(*p),
		match.WithSeed(*seed),
		match.WithWorkers(*workers),
	}
	if *algo != "" {
		opts = append(opts, match.WithAlgorithm(*algo))
	}
	cfg := serve.Config{
		PoolSize:   *pool,
		QueueLimit: *queueLimit,
		Options:    opts,
		DefaultBudget: match.Budget{
			Passes: *maxPasses, Rounds: *maxRounds, SpaceWords: *maxWords,
		},
		WarmCacheSize: *warmCache,
		RetryAfter:    *retryAfter,
	}
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "matchd: %v\n", err)
		return 1
	}

	httpServer := &http.Server{Addr: *addr, Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	fmt.Fprintf(stdout, "matchd: serving on %s (pool %d, queue %d, eps %g)\n",
		*addr, *pool, *queueLimit, *eps)

	select {
	case err := <-errCh:
		s.Close()
		fmt.Fprintf(stderr, "matchd: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "matchd: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	httpServer.Shutdown(shutdownCtx)
	s.Close()
	fmt.Fprintln(stdout, "matchd: drained")
	return 0
}
