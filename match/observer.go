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

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc func(RoundEvent)

// OnRound implements Observer.
func (f ObserverFunc) OnRound(ev RoundEvent) { f(ev) }

// TraceObserver accumulates the per-round λ/β trajectory — a drop-in
// replacement for reading the old trace slices off Stats.
type TraceObserver struct {
	// Events holds every RoundEvent in delivery order.
	Events []RoundEvent
}

// OnRound implements Observer.
func (t *TraceObserver) OnRound(ev RoundEvent) { t.Events = append(t.Events, ev) }

// Lambdas returns the per-round λ values (the old LambdaTrace).
func (t *TraceObserver) Lambdas() []float64 {
	out := make([]float64, len(t.Events))
	for i, ev := range t.Events {
		out[i] = ev.Lambda
	}
	return out
}

// Betas returns the per-round β values (the old BetaTrace).
func (t *TraceObserver) Betas() []float64 {
	out := make([]float64, len(t.Events))
	for i, ev := range t.Events {
		out[i] = ev.Beta
	}
	return out
}
