package algos

import (
	"context"

	"repro/internal/congest"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/stream"
)

// cliqueAlg runs the congested-clique maximal b-matching protocol under
// the engine driver: one driver round per simulated clique round, so a
// rounds budget bounds the protocol's synchronous rounds directly and a
// trip hands back the (feasible) pairs matched so far. The clique's
// per-node adjacency snapshots require the whole graph, so Init
// materializes the source in one metered pass and charges the
// accountant — the space cost of the model, stated honestly.
type cliqueAlg struct {
	p         float64
	seed      uint64
	maxRounds int

	g     *graph.Graph
	proto *congest.Protocol
}

// Init materializes the instance and prepares the protocol.
func (a *cliqueAlg) Init(_ context.Context, run *engine.Run, src stream.Source) error {
	a.g = materialize(run, src)
	a.proto = congest.NewProtocol(a.g, a.p, a.seed, a.maxRounds)
	return nil
}

// Reset drops the per-run snapshot and protocol for session reuse. The
// clique model's state is the materialized instance itself, which a new
// run must rebuild from its own source, so nothing is retained beyond
// the configuration.
func (a *cliqueAlg) Reset() {
	a.g = nil
	a.proto = nil
}

// Round steps the protocol one simulated clique round.
func (a *cliqueAlg) Round(_ context.Context, run *engine.Run) (bool, error) {
	if err := run.BeginRound(); err != nil {
		return false, err
	}
	done := a.proto.Step()
	if err := run.Check(); err != nil {
		return false, err
	}
	return done, nil
}

// Finish maps the matched (u, v) pairs back to edge indices of the
// stream (congest.MatchingResult.Matching).
func (a *cliqueAlg) Finish(_ *engine.Run) (*matching.Matching, engine.Extras) {
	if a.proto == nil {
		return nil, engine.Extras{}
	}
	m, weight := a.proto.Result().Matching(a.g)
	// EarlyStopped means genuine quiescence (every node halted before
	// the cap) — a run cut off by its own round cap is not "converged".
	return m, engine.Extras{Weight: weight, Stats: engine.Stats{EarlyStopped: a.proto.Quiesced()}}
}
