// Package levels implements the weight discretization of Definitions 2, 3
// and 6 of the paper: edge weights are rescaled by B/W* and rounded down
// to integral powers ŵ_k = (1+ε)^k, partitioning the edge set into level
// classes Ê_k, k = 0..L with L = O(ε⁻¹ ln B).
package levels

import (
	"fmt"
	"math"
	"math/bits"
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
	// cells is Level's table over the rescaled weight's float64 bits:
	// cell c covers the floats in [1, 2·2^⌊log₂ B⌋) whose bits>>44 (the
	// binary exponent and the top 8 mantissa bits) equal 1023<<8 + c, and
	// holds the number of levels k ≥ 1 whose boundary ŵ_k·(1+levelGuard)
	// lies below the cell's lowest float. nil when L overflows a uint16.
	cells []uint16
}

// levelGuard is the relative half-width of the band around each level
// boundary ŵ_k inside which Level defers to the closed form. Outside the
// band, log(scaled) is at least levelGuard away from k·log(1+ε), while
// the rounding of ŵ_k, of the closed form and its 1e-12 nudge move the
// comparison by under 1e-11 for every level a uint16 holds, so counting
// boundaries and the closed form agree on every float64.
const levelGuard = 1e-9

// cellShift drops the 44 low mantissa bits: a cell is one binary
// exponent and one value of the top 8 mantissa bits, a relative width of
// at most 1/256, so a cell spans at most one level boundary for ε ≥ 0.004
// (Level steps past several for a smaller ε).
const cellShift = 44

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
	if s.L <= math.MaxUint16 {
		// Rescaled weights reach B (at w = W*), so the cells cover every
		// binary exponent from 2^0 up to B's.
		s.cells = make([]uint16, bits.Len(uint(b))<<8)
		k := 0
		for c := range s.cells {
			lo := math.Float64frombits(uint64(c+1023<<8) << cellShift)
			for k < s.L && s.what[k+1]*(1+levelGuard) < lo {
				k++
			}
			s.cells[c] = uint16(k)
		}
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
//
// The result is closedForm's for every w. Level reads the count of
// boundaries below the rescaled weight's cell and steps past the
// boundaries inside the cell; it calls closedForm only within levelGuard
// of a boundary and outside the table.
func (s *Scheme) Level(w float64) (k int, ok bool) {
	scaled := w * s.B / s.WStar
	if scaled < 1 {
		return 0, false
	}
	if c := math.Float64bits(scaled)>>cellShift - 1023<<8; c < uint64(len(s.cells)) {
		for k = int(s.cells[c]); k < s.L; k++ {
			next := s.what[k+1]
			if scaled < next*(1-levelGuard) {
				return k, true
			}
			if scaled <= next*(1+levelGuard) {
				return s.closedForm(scaled), true
			}
		}
		return s.L, true
	}
	return s.closedForm(scaled), true
}

// closedForm is Definition 3's level of a rescaled weight scaled >= 1:
// ⌊log_{1+ε} scaled⌋, nudged up by 1e-12 and capped at L against
// floating point at w == W*.
func (s *Scheme) closedForm(scaled float64) int {
	return min(int(math.Floor(math.Log(scaled)/s.log1pEps+1e-12)), s.L)
}

// Unscale maps a discretized objective value back to original units.
func (s *Scheme) Unscale(objective float64) float64 {
	return objective * s.WStar / s.B
}

// NumLevels returns L+1, the number of levels in use.
func (s *Scheme) NumLevels() int { return s.L + 1 }
