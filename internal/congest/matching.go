package congest

import (
	"math"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/xrand"
)

// Distributed maximal b-matching in the congested clique, in the style
// the paper sketches ("each vertex to sketch its neighborhood n^(1/p)
// times... O(p/ε) rounds and O(n^(1/p)) size message per vertex"): each
// round, every unsaturated vertex samples ~n^(1/p) of its surviving
// incident edges and ships them to a coordinator (player 0), which
// extends a greedy maximal matching and broadcasts newly saturated
// vertices. Lemma 19/20's filtering analysis gives O(p) rounds for
// maximal matching; weight classes (processed heaviest-first by the
// caller) lift it to the O(1)-approximation regime.

// MatchingResult reports the matched pairs and resource stats.
type MatchingResult struct {
	Pairs [][2]int32 // matched edges (one per multiplicity unit omitted)
	Mults []int
	Stats Stats
	// MaxSampleMsgWords is the largest sampling message a (non-
	// coordinator) vertex sent — the paper's O(n^(1/p)) quantity. The
	// coordinator's saturation broadcasts are accounted separately in
	// Stats.
	MaxSampleMsgWords int
}

// Matching maps the matched (u, v) pairs back to edge indices of g, the
// graph the protocol ran on: each pair takes the first index of its
// endpoint pair, multiplicities kept. It returns the matching and its
// weight.
func (r MatchingResult) Matching(g *graph.Graph) (*matching.Matching, float64) {
	edges := g.Edges()
	idxOf := make(map[uint64]int, len(edges))
	for i, e := range edges {
		if _, ok := idxOf[e.Key()]; !ok {
			idxOf[e.Key()] = i
		}
	}
	m := &matching.Matching{Mult: []int{}}
	weight := 0.0
	for i, pr := range r.Pairs {
		idx := idxOf[graph.KeyOf(pr[0], pr[1])]
		m.EdgeIdx = append(m.EdgeIdx, idx)
		m.Mult = append(m.Mult, r.Mults[i])
		weight += edges[idx].W * float64(r.Mults[i])
	}
	return m, weight
}

// Protocol is the stepping form of the clique matching protocol: one
// Step per simulated clique round, so the engine's round-loop driver can
// own the loop (rounds budget, observer events, cancellation between
// rounds). MaximalMatchingClique wraps it for wholesale runs.
type Protocol struct {
	c          *Clique
	handler    Handler
	limit      int // clique-round cap (2 per matching round)
	steps      int
	halted     bool
	quiesced   bool // halted because every node stopped, not the cap
	pairs      [][2]int32
	mults      []int
	maxSample  []int
	selfSample []uint64 // coordinator keeps its own sample locally
	known      [][]int
	inc        [][]graph.Edge
	rngs       []*xrand.RNG
	budget     int
}

// NewProtocol prepares the protocol on g with message budget ~n^(1/p)
// edge words per vertex per round; maxRounds caps the matching rounds
// (0 = the Lemma 19/20 default of 4p+4, each matching round being two
// clique rounds: sample, then coordinate).
func NewProtocol(g *graph.Graph, p float64, seed uint64, maxRounds int) *Protocol {
	n := g.N()
	pr := &Protocol{c: NewClique(n)}
	pr.budget = int(math.Ceil(math.Pow(float64(n), 1/p)))
	if pr.budget < 2 {
		pr.budget = 2
	}
	if maxRounds == 0 {
		maxRounds = int(4*p) + 4
	}
	pr.limit = 2 * maxRounds
	// Per-node state (the handler closure captures the Protocol; the
	// simulator runs nodes in parallel but each node only touches its
	// own state and the coordinator's state is only touched by node 0).
	resid := make([]int, n)
	for v := range resid {
		resid[v] = g.B(v)
	}
	// Residual capacities as known by each node (synced by broadcast).
	pr.known = make([][]int, n)
	for v := range pr.known {
		pr.known[v] = append([]int(nil), resid...)
	}
	// Adjacency snapshot per node.
	pr.inc = make([][]graph.Edge, n)
	for _, e := range g.Edges() {
		pr.inc[e.U] = append(pr.inc[e.U], e)
		pr.inc[e.V] = append(pr.inc[e.V], e)
	}
	pr.rngs = make([]*xrand.RNG, n)
	for v := range pr.rngs {
		pr.rngs[v] = xrand.New(seed).Split(uint64(v))
	}
	pr.maxSample = make([]int, n)
	pr.handler = pr.node
	return pr
}

// node runs one node for one round — the Handler of the protocol.
func (pr *Protocol) node(node, round int, inbox []Message, send func(to int, payload []uint64)) bool {
	known := pr.known
	if round%2 == 0 {
		// Sampling round. First apply saturation updates broadcast by
		// the coordinator in the previous (odd) round.
		for _, msg := range inbox {
			if msg.From == 0 {
				for i := 0; i+1 < len(msg.Payload); i += 2 {
					known[node][int(msg.Payload[i])] = int(msg.Payload[i+1])
				}
			}
		}
		// Unsaturated vertices send up to `budget` surviving edges
		// to the coordinator.
		if known[node][node] <= 0 {
			return false
		}
		var alive []graph.Edge
		for _, e := range pr.inc[node] {
			if known[node][e.U] > 0 && known[node][e.V] > 0 {
				alive = append(alive, e)
			}
		}
		if len(alive) == 0 {
			return false
		}
		r := pr.rngs[node]
		var payload []uint64
		if len(alive) <= pr.budget {
			for _, e := range alive {
				payload = append(payload, graph.KeyOf(e.U, e.V))
			}
		} else {
			perm := r.Perm(len(alive))[:pr.budget]
			for _, pi := range perm {
				e := alive[pi]
				payload = append(payload, graph.KeyOf(e.U, e.V))
			}
		}
		if node == 0 {
			pr.selfSample = payload // a node may keep its own data
		} else {
			if len(payload) > pr.maxSample[node] {
				pr.maxSample[node] = len(payload)
			}
			send(0, payload)
		}
		return true
	}
	// Coordination round: node 0 extends the matching greedily and
	// broadcasts saturation updates.
	if node != 0 {
		return known[node][node] > 0
	}
	var updates []uint64
	work := inbox
	if len(pr.selfSample) > 0 {
		work = append([]Message{{From: 0, Payload: pr.selfSample}}, inbox...)
		pr.selfSample = nil
	}
	for _, msg := range work {
		for _, key := range msg.Payload {
			u, v := graph.UnKey(key)
			cu, cv := known[0][u], known[0][v]
			m := cu
			if cv < m {
				m = cv
			}
			if m > 0 {
				known[0][u] -= m
				known[0][v] -= m
				pr.pairs = append(pr.pairs, [2]int32{u, v})
				pr.mults = append(pr.mults, m)
				updates = append(updates, uint64(u), uint64(known[0][u]), uint64(v), uint64(known[0][v]))
			}
		}
	}
	if len(updates) > 0 {
		for to := 1; to < pr.c.N; to++ {
			send(to, updates)
		}
	}
	return true
}

// Step executes the next simulated clique round and reports whether the
// protocol is done (every node halted, or the round cap reached).
func (pr *Protocol) Step() (done bool) {
	if pr.halted || pr.steps >= pr.limit {
		pr.halted = true
		return true
	}
	alive := pr.c.Step(pr.handler)
	pr.steps++
	if !alive {
		pr.quiesced = true
	}
	if !alive || pr.steps >= pr.limit {
		pr.halted = true
	}
	return pr.halted
}

// Quiesced reports whether the protocol ended because every node halted
// — as opposed to hitting the round cap with nodes still alive. The
// engine adapter maps this to "converged before the round cap".
func (pr *Protocol) Quiesced() bool { return pr.quiesced }

// Result reports the matched pairs and the resource statistics
// accumulated so far. It is valid mid-protocol: the pairs matched so
// far are a feasible (partial) b-matching, which is what the engine's
// best-so-far budget semantics hand back on a trip.
func (pr *Protocol) Result() MatchingResult {
	maxS := 0
	for _, v := range pr.maxSample {
		if v > maxS {
			maxS = v
		}
	}
	return MatchingResult{Pairs: pr.pairs, Mults: pr.mults, Stats: pr.c.Stats(), MaxSampleMsgWords: maxS}
}

// MaximalMatchingClique runs the protocol on g to completion with
// message budget ~n^(1/p) edge words per vertex per round.
func MaximalMatchingClique(g *graph.Graph, p float64, seed uint64, maxRounds int) MatchingResult {
	pr := NewProtocol(g, p, seed, maxRounds)
	for !pr.Step() {
	}
	return pr.Result()
}
