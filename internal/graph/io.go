package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Edge-list text I/O. Lines are "u v [w]" (weight defaults to 1); blank
// lines and lines starting with '#' are ignored. Vertex ids are
// non-negative integers; the graph size is 1 + the largest id seen.
// An optional "b v capacity" line sets a vertex capacity.

// ReadEdgeList parses a graph from r.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	type edge struct {
		u, v int
		w    float64
	}
	type cap struct{ v, b int }
	var edges []edge
	var caps []cap
	maxV := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if parts[0] == "b" {
			if len(parts) != 3 {
				return nil, fmt.Errorf("graph: line %d: capacity line needs 'b v cap'", lineNo)
			}
			v, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			b, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			caps = append(caps, cap{v, b})
			if v > maxV {
				maxV = v
			}
			continue
		}
		if len(parts) < 2 {
			return nil, fmt.Errorf("graph: line %d: need 'u v [w]'", lineNo)
		}
		u, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		v, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		w := 1.0
		if len(parts) >= 3 {
			if w, err = strconv.ParseFloat(parts[2], 64); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		edges = append(edges, edge{u, v, w})
		if u > maxV {
			maxV = u
		}
		if v > maxV {
			maxV = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := New(maxV + 1)
	for _, e := range edges {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			return nil, err
		}
	}
	for _, c := range caps {
		if c.b < 1 {
			return nil, fmt.Errorf("graph: capacity of %d must be >= 1", c.v)
		}
		g.SetB(c.v, c.b)
	}
	return g, nil
}

// ReadDIMACS parses a graph in DIMACS edge format: comment lines start
// with 'c', one problem line "p edge <n> <m>" precedes the edges, and
// each edge line is "e <u> <v> [w]" with 1-indexed vertices (weight
// defaults to 1). The declared edge count is checked against the lines
// actually read.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	var g *Graph
	declared := -1
	read := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		parts := strings.Fields(line)
		switch parts[0] {
		case "p":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate problem line", lineNo)
			}
			if len(parts) != 4 {
				return nil, fmt.Errorf("graph: line %d: problem line needs 'p edge n m'", lineNo)
			}
			n, err := strconv.Atoi(parts[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count %q", lineNo, parts[2])
			}
			m, err := strconv.Atoi(parts[3])
			if err != nil || m < 0 {
				return nil, fmt.Errorf("graph: line %d: bad edge count %q", lineNo, parts[3])
			}
			g = New(n)
			declared = m
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before problem line", lineNo)
			}
			if len(parts) < 3 {
				return nil, fmt.Errorf("graph: line %d: need 'e u v [w]'", lineNo)
			}
			u, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			v, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			w := 1.0
			if len(parts) >= 4 {
				if w, err = strconv.ParseFloat(parts[3], 64); err != nil {
					return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
				}
			}
			if err := g.AddEdge(u-1, v-1, w); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			read++
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, parts[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing DIMACS problem line")
	}
	if read != declared {
		return nil, fmt.Errorf("graph: DIMACS declares %d edges, found %d", declared, read)
	}
	return g, nil
}
