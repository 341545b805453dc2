package engine

import (
	"context"

	"repro/internal/stream"
)

// Session is a reusable solve lifecycle around one algorithm instance:
// construct once, Solve many times. Between solves the algorithm is
// Reset — per-run state cleared, scratch capacity retained — and the
// session's arena is reclaimed, so a second solve on a same-shape
// instance reuses the first solve's working memory instead of
// reallocating it. Each Solve is bit-identical to the first Solve of a
// fresh Session around a fresh instance (the Algorithm.Reset contract),
// including every resource meter: the arena retains capacity, never
// live words.
//
// A Session is not safe for concurrent use — it is one algorithm
// instance plus one arena. Run many instances in flight by holding many
// sessions (the public repro/match.Pool does exactly that).
type Session struct {
	p     Params
	alg   Algorithm
	arena *Arena
	runs  int
}

// NewSession builds a session around alg, a fresh instance from a
// registry Factory (or an algorithm package's own constructor). p is
// what Reset hands the instance between runs.
func NewSession(alg Algorithm, p Params) *Session {
	return &Session{p: p, alg: alg, arena: &Arena{}}
}

// Solve runs one driven solve through the session: Reset + arena
// reclaim when a prior run left state behind, then the shared round
// loop with the session's arena.
func (s *Session) Solve(ctx context.Context, src stream.Source, ext Extensions) (*Outcome, error) {
	if s.runs > 0 {
		s.alg.Reset(s.p)
		s.arena.Reclaim()
	}
	s.runs++
	return drive(ctx, s.alg, src, ext, s.arena)
}

// RetainedWords reports the session's retained scratch capacity in
// 64-bit words — memory kept warm between runs, deliberately NOT part of
// any run's metered live space (see Arena). It sums the arena's pools
// with the buffers an algorithm pools itself, when it reports them
// through a RetainedWords method (the dual-primal solver's forests,
// builder slots, union buffers and oracle scratch).
func (s *Session) RetainedWords() int {
	w := s.arena.RetainedWords()
	if r, ok := s.alg.(interface{ RetainedWords() int }); ok {
		w += r.RetainedWords()
	}
	return w
}
