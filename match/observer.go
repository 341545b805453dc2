package match

import "repro/internal/engine"

// RoundEvent is the per-round snapshot an Observer receives: the dual
// trajectory (λ entering the round, the primal target β) and the
// resource meters (passes consumed, peak central words) at that point.
type RoundEvent = engine.RoundEvent

// Observer receives one RoundEvent per adaptive sampling round, at the
// start of the round, in strictly increasing Round order (Round is
// 1-based). Events are delivered synchronously from the solving
// goroutine — OnRound must not block. They are the one record of the
// per-round λ/β trajectory, which Stats does not carry.
type Observer interface {
	OnRound(RoundEvent)
}

// TraceObserver accumulates every RoundEvent of a solve: the per-round
// λ/β trajectory and the meters at each round.
type TraceObserver struct {
	// Events holds every RoundEvent in delivery order.
	Events []RoundEvent
}

// OnRound implements Observer.
func (t *TraceObserver) OnRound(ev RoundEvent) { t.Events = append(t.Events, ev) }
