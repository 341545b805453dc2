package engine

import (
	"context"

	"repro/internal/stream"
)

// Session is a reusable solve lifecycle around one algorithm instance:
// construct once, Solve many times. Between solves the algorithm is
// Reset — per-run state cleared, scratch capacity retained — so a
// second solve on a same-shape instance reuses the first solve's
// working memory instead of reallocating it. Each Solve is
// bit-identical to the first Solve of a fresh Session around a fresh
// instance (the Algorithm.Reset contract), including every resource
// meter: retained capacity is never live words.
//
// A Session is not safe for concurrent use — it is one algorithm
// instance. Run many instances in flight by holding many sessions (one
// repro/match.Solver per goroutine, as the matchd fleet does).
type Session struct {
	alg  Algorithm
	runs int
}

// NewSession builds a session around alg, a fresh instance from a
// registry Factory (or an algorithm package's own constructor).
func NewSession(alg Algorithm) *Session {
	return &Session{alg: alg}
}

// Solve runs one driven solve through the session: Reset when a prior
// run left state behind, then the shared round loop.
func (s *Session) Solve(ctx context.Context, src stream.Source, ext Extensions) (*Outcome, error) {
	if s.runs > 0 {
		s.alg.Reset()
	}
	s.runs++
	return drive(ctx, s.alg, src, ext)
}
