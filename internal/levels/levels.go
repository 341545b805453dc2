// Package levels implements the weight discretization of Definitions 2, 3
// and 6 of the paper: edge weights are rescaled by B/W* and rounded down
// to integral powers ŵ_k = (1+ε)^k, partitioning the edge set into level
// classes Ê_k, k = 0..L with L = O(ε⁻¹ ln B).
package levels

import (
	"fmt"
	"math"
)

// Scheme captures a discretization: the reference weight W*, the total
// capacity B and the accuracy ε. Edges with rescaled weight below 1 (i.e.
// w_ij < W*/B) are dropped; their total contribution is at most ε·β* when
// B ≥ n/ε (Observation 1 regime), and always at most W* ≤ β*.
type Scheme struct {
	Eps   float64
	WStar float64 // maximum edge weight W*
	B     float64 // Σ b_i
	L     int     // index of the highest level in use

	log1pEps float64
	what     []float64 // ŵ_k = (1+ε)^k for k = 0..L, built once at construction
}

// NewScheme builds a discretization for accuracy eps from W* and B.
func NewScheme(eps, wstar float64, b int) (*Scheme, error) {
	if !(eps > 0) || eps > 1 {
		return nil, fmt.Errorf("levels: eps %v out of (0,1]", eps)
	}
	if !(wstar > 0) {
		return nil, fmt.Errorf("levels: W* must be positive, got %v", wstar)
	}
	if b < 1 {
		return nil, fmt.Errorf("levels: B must be >= 1, got %d", b)
	}
	s := &Scheme{Eps: eps, WStar: wstar, B: float64(b), log1pEps: math.Log1p(eps)}
	// The top level: the rescaled max weight is B, so L = floor(log_{1+eps} B).
	s.L = int(math.Floor(math.Log(s.B)/s.log1pEps + 1e-12))
	// Levels are small bounded ints, so ŵ is a table: each entry is the
	// exact math.Pow value WHat used to compute per call, built once here.
	s.what = make([]float64, s.L+1)
	for k := range s.what {
		//lint:powtable table construction; the per-call hot path reads this table
		s.what[k] = math.Pow(1+eps, float64(k))
	}
	return s, nil
}

// WHat returns ŵ_k = (1+ε)^k. Levels in use are 0..L, served from the
// precomputed table; out-of-range k (never produced by Level, but legal
// for callers probing hypothetical levels) falls back to the closed form
// the table was built from.
func (s *Scheme) WHat(k int) float64 {
	if k >= 0 && k < len(s.what) {
		return s.what[k]
	}
	//lint:powtable out-of-table fallback, not reachable from solver levels
	return math.Pow(1+s.Eps, float64(k))
}

// Level returns the level of an original edge weight w, and ok=false if
// the edge is dropped (rescaled weight < 1, i.e. w < W*/B). Definition 3:
// k is the unique level with (W*/B)·ŵ_k <= w < (W*/B)·ŵ_{k+1}.
func (s *Scheme) Level(w float64) (k int, ok bool) {
	scaled := w * s.B / s.WStar
	if scaled < 1 {
		return 0, false
	}
	k = int(math.Floor(math.Log(scaled)/s.log1pEps + 1e-12))
	if k > s.L {
		k = s.L // guard against floating point at w == W*
	}
	return k, true
}

// Unscale maps a discretized objective value back to original units.
func (s *Scheme) Unscale(objective float64) float64 {
	return objective * s.WStar / s.B
}

// NumLevels returns L+1, the number of levels in use.
func (s *Scheme) NumLevels() int { return s.L + 1 }
