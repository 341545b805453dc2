package matching

import "repro/internal/graph"

// HKState is Hopcroft–Karp bipartite maximum-cardinality matching in
// phase-stepping form: each Phase runs one BFS layering plus the DFS
// augmentation sweep, so the engine's round-loop driver can own the loop
// (one phase per driver round); the whole algorithm is O(E sqrt(V))
// because O(sqrt(V)) phases suffice.
type HKState struct {
	g              *graph.Graph
	side           []int8 // 0 = unvisited, 1 = left, 2 = right
	matchL, matchR []int32
	dist           []int32
	queueBuf       []int32
}

const hkInf = int32(1 << 30)

// NewHopcroftKarp prepares the phase-stepping solver. The bipartition is
// inferred by 2-coloring each connected component; it returns ok=false
// if the graph is not bipartite.
func NewHopcroftKarp(g *graph.Graph) (h *HKState, ok bool) {
	n := g.N()
	side := make([]int8, n)
	var stack []int
	for s := 0; s < n; s++ {
		if side[s] != 0 {
			continue
		}
		side[s] = 1
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			bad := false
			g.Neighbors(v, func(_ int, o int32) {
				if side[o] == 0 {
					side[o] = 3 - side[v]
					stack = append(stack, int(o))
				} else if side[o] == side[v] {
					bad = true
				}
			})
			if bad {
				return nil, false
			}
		}
	}
	h = &HKState{g: g, side: side,
		matchL: make([]int32, n), matchR: make([]int32, n), dist: make([]int32, n)}
	for i := range h.matchL {
		h.matchL[i] = -1
		h.matchR[i] = -1
	}
	return h, true
}

// bfs builds the layered graph from the free left vertices; it reports
// whether any augmenting path exists.
func (h *HKState) bfs() bool {
	n := h.g.N()
	h.queueBuf = h.queueBuf[:0]
	for v := 0; v < n; v++ {
		if h.side[v] == 1 {
			if h.matchL[v] == -1 {
				h.dist[v] = 0
				h.queueBuf = append(h.queueBuf, int32(v))
			} else {
				h.dist[v] = hkInf
			}
		}
	}
	found := false
	for qi := 0; qi < len(h.queueBuf); qi++ {
		v := h.queueBuf[qi]
		h.g.Neighbors(int(v), func(_ int, o int32) {
			w := h.matchR[o]
			if w == -1 {
				found = true
			} else if h.dist[w] == hkInf {
				h.dist[w] = h.dist[v] + 1
				h.queueBuf = append(h.queueBuf, w)
			}
		})
	}
	return found
}

// dfs augments along a shortest alternating path from left vertex v.
func (h *HKState) dfs(v int32) bool {
	res := false
	h.g.Neighbors(int(v), func(_ int, o int32) {
		if res {
			return
		}
		w := h.matchR[o]
		if w == -1 || (h.dist[w] == h.dist[v]+1 && h.dfs(w)) {
			h.matchL[v] = o
			h.matchR[o] = v
			res = true
		}
	})
	if !res {
		h.dist[v] = hkInf
	}
	return res
}

// Phase runs one Hopcroft–Karp phase — one BFS layering plus the DFS
// augmentation sweep over all free left vertices — and reports whether
// any augmenting path was found. Phase returning false means the
// matching is maximum.
func (h *HKState) Phase() bool {
	if !h.bfs() {
		return false
	}
	for v := 0; v < h.g.N(); v++ {
		if h.side[v] == 1 && h.matchL[v] == -1 {
			h.dfs(int32(v))
		}
	}
	return true
}

// Matching emits the current matching as edge indices into g.
func (h *HKState) Matching() *Matching {
	n := h.g.N()
	out := &Matching{}
	usedPair := make(map[uint64]bool)
	for v := 0; v < n; v++ {
		if h.side[v] == 1 && h.matchL[v] != -1 {
			usedPair[graph.KeyOf(int32(v), h.matchL[v])] = true
		}
	}
	taken := make(map[uint64]bool)
	for idx, e := range h.g.Edges() {
		k := e.Key()
		if usedPair[k] && !taken[k] {
			taken[k] = true
			out.EdgeIdx = append(out.EdgeIdx, idx)
		}
	}
	return out
}
