package graph

import "testing"

func triangle() *Graph {
	g := New()
	a := g.AddVertex()
	b := g.AddVertex()
	c := g.AddVertex()
	g.AddEdge(a, b, 1)
	g.AddEdge(b, c, 2)
	g.AddEdge(a, c, 5)
	return g
}

func TestAddVertex(t *testing.T) {
	g := New()
	v0 := g.AddVertex()
	v1 := g.AddVertex()
	if v0 != 0 || v1 != 1 {
		t.Fatalf("vertex IDs %d, %d", v0, v1)
	}
	if g.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
}

func TestAddEdgeAndWeights(t *testing.T) {
	g := triangle()
	if n := len(g.Edges()); n != 3 {
		t.Fatalf("%d edges, want 3", n)
	}
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 1 {
		t.Fatalf("EdgeWeight(0,1) = %v, %v", w, ok)
	}
	// Undirected: both directions report.
	w, ok = g.EdgeWeight(1, 0)
	if !ok || w != 1 {
		t.Fatalf("EdgeWeight(1,0) = %v, %v", w, ok)
	}
	if _, ok := New2().EdgeWeight(0, 1); ok {
		t.Fatal("edge reported on edgeless graph")
	}
}

// New2 returns a two-vertex edgeless graph.
func New2() *Graph {
	g := New()
	g.AddVertex()
	g.AddVertex()
	return g
}

func TestParallelEdgesKeepMinWeight(t *testing.T) {
	g := New2()
	g.AddEdge(0, 1, 5)
	g.AddEdge(0, 1, 2)
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 2 {
		t.Fatalf("min-weight parallel edge = %v", w)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	g := New()
	v := g.AddVertex()
	g.AddEdge(v, v, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	New2().AddEdge(0, 7, 1)
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := triangle()
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("edges: %v", es)
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].U > es[i].U || (es[i-1].U == es[i].U && es[i-1].V > es[i].V) {
			t.Fatalf("edges unsorted: %v", es)
		}
	}
	for _, e := range es {
		if e.U >= e.V {
			t.Fatalf("edge not normalized: %+v", e)
		}
	}
}

func TestDegreeAndWeightedDegree(t *testing.T) {
	g := triangle()
	if g.Degree(0) != 2 {
		t.Fatalf("Degree(0) = %d", g.Degree(0))
	}
	if g.WeightedDegree(0) != 6 { // 1 + 5
		t.Fatalf("WeightedDegree(0) = %v", g.WeightedDegree(0))
	}
}
