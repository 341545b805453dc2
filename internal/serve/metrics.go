// Prometheus-style metrics, hand-rolled: the module takes no external
// dependencies, and the exposition format is simple enough that a small
// registry rendering text format 0.0.4 keeps /metrics scrapeable by any
// Prometheus-compatible collector. Counters and the latency histogram
// accumulate under one mutex (solve completion is the hot event, and it
// is orders of magnitude rarer than edge processing); gauges — queue
// depth, pool in-flight, warm-cache size — are sampled at scrape time
// from the live structures.

package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// latencyRing bounds the window the p99 gauge is computed over: the
// last latencyRing completed solves.
const latencyRing = 2048

// solveBuckets are the histogram upper bounds in seconds.
var solveBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type metrics struct {
	mu          sync.Mutex
	start       time.Time
	admittedN   uint64
	rejectedN   uint64
	solves      map[string]uint64 // by solve status label
	trips       map[string]uint64 // by budget axis
	warmHits    uint64
	warmMisses  uint64
	bucketCount []uint64
	latSum      float64
	latCount    uint64
	ring        [latencyRing]float64
	ringN       uint64
}

func newMetrics() *metrics {
	return &metrics{
		start:       time.Now(),
		solves:      make(map[string]uint64),
		trips:       make(map[string]uint64),
		bucketCount: make([]uint64, len(solveBuckets)),
	}
}

func (m *metrics) admitted() {
	m.mu.Lock()
	m.admittedN++
	m.mu.Unlock()
}

func (m *metrics) rejected() {
	m.mu.Lock()
	m.rejectedN++
	m.mu.Unlock()
}

func (m *metrics) warm(hit bool) {
	m.mu.Lock()
	if hit {
		m.warmHits++
	} else {
		m.warmMisses++
	}
	m.mu.Unlock()
}

func (m *metrics) tripped(axis string) {
	m.mu.Lock()
	m.trips[axis]++
	m.mu.Unlock()
}

// solved records one completed solve: its status label and its wall
// time (which feeds the histogram, the sum/count pair and the p99
// ring — for every status, since a budget-tripped or failed solve
// occupied a session just the same).
func (m *metrics) solved(status string, seconds float64) {
	m.mu.Lock()
	m.solves[status]++
	for i, ub := range solveBuckets {
		if seconds <= ub {
			m.bucketCount[i]++
		}
	}
	m.latSum += seconds
	m.latCount++
	m.ring[m.ringN%latencyRing] = seconds
	m.ringN++
	m.mu.Unlock()
}

// p99Locked computes the 99th-percentile solve latency over the ring
// window. Caller holds mu.
func (m *metrics) p99Locked() float64 {
	n := m.ringN
	if n == 0 {
		return 0
	}
	if n > latencyRing {
		n = latencyRing
	}
	window := make([]float64, n)
	copy(window, m.ring[:n])
	sort.Float64s(window)
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return window[idx]
}

// gauges carries the scrape-time samples render interleaves with the
// accumulated counters.
type gauges struct {
	queueDepth   int
	poolSessions int
	poolInFlight int
	warmEntries  int
}

// render writes the registry in Prometheus text exposition format
// 0.0.4. Metric order is fixed so scrapes diff cleanly.
func (m *metrics) render(w io.Writer, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("matchd_jobs_admitted_total", "Jobs accepted into the admission queue.", m.admittedN)
	counter("matchd_jobs_rejected_total", "Jobs rejected with 429 because the admission queue was full.", m.rejectedN)

	fmt.Fprintf(w, "# HELP matchd_solves_total Completed solves by outcome.\n# TYPE matchd_solves_total counter\n")
	for _, status := range []string{solveOK, solveBudget, solveCanceled, solveFailed} {
		fmt.Fprintf(w, "matchd_solves_total{status=%q} %d\n", status, m.solves[status])
	}

	fmt.Fprintf(w, "# HELP matchd_budget_trips_total Budget trips by resource axis.\n# TYPE matchd_budget_trips_total counter\n")
	for _, axis := range []string{"passes", "rounds", "space-words"} {
		fmt.Fprintf(w, "matchd_budget_trips_total{axis=%q} %d\n", axis, m.trips[axis])
	}

	counter("matchd_warm_hits_total", "Solves seeded from the warm-dual fingerprint cache.", m.warmHits)
	counter("matchd_warm_misses_total", "Warm-eligible solves whose fingerprint missed the cache.", m.warmMisses)

	gauge("matchd_queue_depth", "Jobs waiting in the admission queue.", float64(g.queueDepth))
	gauge("matchd_pool_sessions", "Solve sessions in the fleet.", float64(g.poolSessions))
	gauge("matchd_pool_inflight", "Solves currently running on a session.", float64(g.poolInFlight))
	gauge("matchd_warm_cache_entries", "Dual snapshots held by the fingerprint cache.", float64(g.warmEntries))
	gauge("matchd_solve_seconds_p99", "99th-percentile solve wall time over the recent window.", m.p99Locked())
	gauge("matchd_uptime_seconds", "Seconds since the server started.", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP matchd_solve_seconds Solve wall time.\n# TYPE matchd_solve_seconds histogram\n")
	for i, ub := range solveBuckets {
		fmt.Fprintf(w, "matchd_solve_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", ub), m.bucketCount[i])
	}
	fmt.Fprintf(w, "matchd_solve_seconds_bucket{le=\"+Inf\"} %d\n", m.latCount)
	fmt.Fprintf(w, "matchd_solve_seconds_sum %g\n", m.latSum)
	fmt.Fprintf(w, "matchd_solve_seconds_count %d\n", m.latCount)
}
