// Package graph implements the weighted undirected graphs that underpin
// both topology representations in the paper (§4.1): the physical system
// topology graph and the job communication graph. It provides the
// adjacency bookkeeping the recursive bi-partitioning mapper and its FM
// partitioner walk.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Inf is the distance reported between disconnected vertices.
var Inf = math.Inf(1)

// Edge is an undirected weighted edge between two vertices.
type Edge struct {
	U, V   int
	Weight float64
}

// Graph is a weighted undirected graph over vertices identified by dense
// integer IDs assigned at AddVertex time.
type Graph struct {
	adj   [][]halfEdge
	edges int
}

type halfEdge struct {
	to int
	w  float64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{}
}

// AddVertex adds a vertex and returns its ID.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge adds an undirected edge between u and v with the given weight.
// Parallel edges are allowed (the topology model never creates them, but
// the job graph may). It panics if u or v is out of range or u == v.
func (g *Graph) AddEdge(u, v int, weight float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	g.checkVertex(u)
	g.checkVertex(v)
	g.adj[u] = append(g.adj[u], halfEdge{to: v, w: weight})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, w: weight})
	g.edges++
}

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, len(g.adj)))
	}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.adj) }

// EdgeWeight returns the weight of the minimum-weight edge between u and v
// and whether any edge exists.
func (g *Graph) EdgeWeight(u, v int) (float64, bool) {
	g.checkVertex(u)
	g.checkVertex(v)
	best, found := 0.0, false
	for _, h := range g.adj[u] {
		if h.to == v && (!found || h.w < best) {
			best, found = h.w, true
		}
	}
	return best, found
}

// Edges returns all undirected edges with U < V, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	return g.AppendEdges(make([]Edge, 0, g.edges))
}

// AppendEdges appends all undirected edges (U < V, sorted by (U, V)) to
// buf and returns it — the allocation-free variant of Edges for callers
// with a reusable buffer.
func (g *Graph) AppendEdges(buf []Edge) []Edge {
	start := len(buf)
	for u, hs := range g.adj {
		for _, h := range hs {
			if u < h.to {
				buf = append(buf, Edge{U: u, V: h.to, Weight: h.w})
			}
		}
	}
	out := buf[start:]
	slices.SortFunc(out, func(a, b Edge) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
	return buf
}

// Reset reinitializes the graph to n unconnected vertices,
// retaining the backing arrays of previous use. It exists for hot loops
// (the DRB mapper rebuilds a small affinity graph per recursion step)
// that would otherwise allocate a fresh graph each time.
func (g *Graph) Reset(n int) {
	for cap(g.adj) < n {
		g.adj = append(g.adj[:cap(g.adj)], nil)
	}
	g.adj = g.adj[:n]
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.edges = 0
}

// ForEachIncident calls fn for every half-edge incident to v, in
// insertion order, without allocating — the iteration primitive for hot
// partitioning loops that would otherwise copy Neighbors/EdgeWeight
// results per call.
func (g *Graph) ForEachIncident(v int, fn func(to int, w float64)) {
	g.checkVertex(v)
	for _, h := range g.adj[v] {
		fn(h.to, h.w)
	}
}

// Degree returns the number of incident edges of v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// WeightedDegree returns the sum of incident edge weights of v.
func (g *Graph) WeightedDegree(v int) float64 {
	g.checkVertex(v)
	var sum float64
	for _, h := range g.adj[v] {
		sum += h.w
	}
	return sum
}

// MaxEdgeWeight returns the largest edge weight, 0 for a graph with no
// positive edge. It walks the adjacency in place.
func (g *Graph) MaxEdgeWeight() float64 {
	var max float64
	for _, hs := range g.adj {
		for _, h := range hs {
			if h.w > max {
				max = h.w
			}
		}
	}
	return max
}
