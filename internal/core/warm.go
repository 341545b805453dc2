package core

// Warm-started duals ("Faster Matchings via Learned Duals",
// arXiv:2107.09770, transplanted onto the covering framework): a
// finished solve snapshots its dual state, and a later solve on a
// similar instance can install that snapshot in place of the Lemma
// 20/21 initial solution, entering the sampling loop with a dual point
// that is already close to feasible for the drifted instance. The
// correctness argument is the one the paper's certificate already
// makes: λ and the dual objective are re-evaluated against the *current*
// instance every round, so the certificate (dual objective / λ) stands
// by weak duality no matter where the starting duals came from — a warm
// start can only change how many rounds the trajectory needs, never
// what a positive certificate means.
//
// Validity and the certified fallback: installing a snapshot is only
// meaningful when both solves discretize weights identically — same
// vertex count, same ε, and the same (W*, B) pair, which fully
// determine the level scheme. When any of those drifted, the snapshot's
// (vertex, level) grid no longer addresses the new instance and the
// solve falls back to the cold initial solution, whose Lemma 20/21
// guarantees certify the run exactly as if no warm start had been
// requested. Stats.WarmStarted reports which path ran.

import (
	"repro/internal/engine"
	"repro/internal/levels"
)

// snapshotDuals copies the run's final dual state into a detached
// engine.Duals. Nil when the run aborted before the state existed.
func (a *dualPrimal) snapshotDuals() *engine.Duals {
	st := a.state
	if st == nil || a.scheme == nil {
		return nil
	}
	w := &engine.Duals{
		N:         a.n,
		Eps:       a.eps,
		WStar:     a.scheme.WStar,
		TotalB:    int(a.scheme.B),
		NumLevels: st.nl,
		X:         make([]float64, st.n*st.nl),
	}
	for v := 0; v < st.n; v++ {
		row := st.xik[v]
		for k, val := range row {
			w.X[v*st.nl+k] = val * st.scale
		}
	}
	// All member lists share one backing array: the snapshot runs on
	// every dual-primal solve (the outcome contract is that Duals is
	// always installable later), so its own allocation count must stay
	// O(1) in the number of odd sets.
	total := 0
	live := 0
	for _, zs := range st.zsets {
		if zs.val != 0 {
			total += len(zs.members)
			live++
		}
	}
	if live > 0 {
		backing := make([]int32, 0, total)
		w.Z = make([]engine.ZSet, 0, live)
		for _, zs := range st.zsets {
			if zs.val == 0 {
				continue
			}
			lo := len(backing)
			backing = append(backing, zs.members...)
			w.Z = append(w.Z, engine.ZSet{
				Members: backing[lo:len(backing):len(backing)],
				Level:   zs.level,
				Val:     zs.val * st.scale,
			})
		}
	}
	return w
}

// installable reports whether the snapshot addresses the same
// discretization as the current instance (false for a nil snapshot).
func installable(w *engine.Duals, n int, eps float64, scheme *levels.Scheme) bool {
	return w != nil &&
		w.N == n &&
		w.Eps == eps &&
		w.WStar == scheme.WStar &&
		w.TotalB == int(scheme.B) &&
		w.NumLevels == scheme.NumLevels() &&
		len(w.X) == n*scheme.NumLevels()
}

// install seeds a fresh dual state from the snapshot. Must be called on
// a state with scale 1 and no z-sets (the state Init just built).
func install(w *engine.Duals, st *dualState) {
	for v := 0; v < st.n; v++ {
		copy(st.xik[v], w.X[v*st.nl:(v+1)*st.nl])
	}
	for _, z := range w.Z {
		if z.Val <= 0 || len(z.Members) == 0 {
			continue
		}
		// The member list is aliased, not copied: both the snapshot and
		// the state treat members as immutable, and snapshotDuals copies
		// outward, so the sharing is never observable.
		st.addZSet(z.Members, z.Level, z.Val)
	}
}
