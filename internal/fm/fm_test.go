package fm

import (
	"math"
	"testing"

	"gputopo/internal/graph"
)

// clusteredGraph builds two dense 4-vertex clusters joined by one weak
// edge — the obvious optimal cut is the weak edge.
func clusteredGraph() *graph.Graph {
	g := graph.New()
	for i := 0; i < 8; i++ {
		g.AddVertex()
	}
	for _, c := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				g.AddEdge(c[i], c[j], 10)
			}
		}
	}
	g.AddEdge(3, 4, 1)
	return g
}

func sideCounts(side []int) (int, int) {
	c0, c1 := 0, 0
	for _, s := range side {
		if s == 0 {
			c0++
		} else {
			c1++
		}
	}
	return c0, c1
}

func TestBipartitionFindsWeakCut(t *testing.T) {
	g := clusteredGraph()
	res := bipartition(g)
	if res.CutWeight != 1 {
		t.Fatalf("cut weight = %v, want 1 (the weak edge)", res.CutWeight)
	}
	// The clusters must be intact.
	for _, c := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for _, v := range c[1:] {
			if res.Side[v] != res.Side[c[0]] {
				t.Fatalf("cluster split: sides %v", res.Side)
			}
		}
	}
}

func TestBipartitionBalance(t *testing.T) {
	g := clusteredGraph()
	res := bipartition(g)
	c0, c1 := sideCounts(res.Side)
	if d := c0 - c1; d < -1 || d > 1 {
		t.Fatalf("imbalanced: %d vs %d", c0, c1)
	}
}

func TestBipartitionEmptyAndSingle(t *testing.T) {
	res := bipartition(graph.New())
	if len(res.Side) != 0 {
		t.Fatal("empty graph should yield empty sides")
	}
	g := graph.New()
	g.AddVertex()
	res = bipartition(g)
	if len(res.Side) != 1 {
		t.Fatalf("single-vertex sides = %v", res.Side)
	}
}

func TestBipartitionCutWeightConsistent(t *testing.T) {
	g := clusteredGraph()
	res := bipartition(g)
	if got := cutWeight(g, res.Side); math.Abs(got-res.CutWeight) > 1e-9 {
		t.Fatalf("reported cut %v, recomputed %v", res.CutWeight, got)
	}
}

func TestExhaustiveMatchesKnownOptimum(t *testing.T) {
	g := clusteredGraph()
	res := ExhaustiveBipartition(g, 1)
	if res.CutWeight != 1 {
		t.Fatalf("exhaustive cut = %v, want 1", res.CutWeight)
	}
}

// TestFMNearOptimalOnRandomGraphs checks FM against the exhaustive optimum
// on deterministic pseudo-random graphs. FM is a heuristic; we require it
// to reach the optimum on these small instances (it does, given the
// rollback pass structure), which also guards against regressions.
func TestFMNearOptimalOnRandomGraphs(t *testing.T) {
	state := uint64(7)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for trial := 0; trial < 30; trial++ {
		g := graph.New()
		n := 6 + int(next()%5) // 6..10 vertices
		for i := 0; i < n; i++ {
			g.AddVertex()
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if next()%3 != 0 {
					g.AddEdge(i, j, float64(1+next()%7))
				}
			}
		}
		fmRes := bipartition(g)
		exRes := ExhaustiveBipartition(g, 1)
		// Allow a small slack: FM must be within 25% of optimal on these
		// tiny graphs and usually matches it exactly.
		if fmRes.CutWeight > exRes.CutWeight*1.25+1e-9 {
			t.Fatalf("trial %d: FM cut %v vs optimal %v", trial, fmRes.CutWeight, exRes.CutWeight)
		}
		c0, c1 := sideCounts(fmRes.Side)
		if d := c0 - c1; d < -1 || d > 1 {
			t.Fatalf("trial %d imbalanced: %d vs %d", trial, c0, c1)
		}
	}
}

func TestBipartitionImprovesOverInterleaved(t *testing.T) {
	g := clusteredGraph()
	// Interleaved start: vertices alternate sides, cutting both clusters.
	interleaved := make([]int, g.NumVertices())
	for i := range interleaved {
		interleaved[i] = i % 2
	}
	start := cutWeight(g, interleaved)
	res := bipartition(g)
	if res.CutWeight >= start {
		t.Fatalf("FM did not improve: %v >= %v", res.CutWeight, start)
	}
}

func TestGainComputation(t *testing.T) {
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddVertex()
	}
	g.AddEdge(0, 1, 2) // internal if same side
	g.AddEdge(0, 2, 3) // external if across
	side := []int{0, 0, 1, 1}
	// Moving 0 to side 1: edge (0,1) becomes external (-2), edge (0,2)
	// becomes internal (+3): gain = 3 - 2 = 1.
	var w Workspace
	w.load(g)
	if got := w.gain(side, 0); got != 1 {
		t.Fatalf("gain = %v, want 1", got)
	}
}

// cutWeight recomputes the cut of a side assignment from scratch.
func cutWeight(g *graph.Graph, side []int) float64 {
	w := Workspace{edges: g.Edges()}
	return w.cutWeight(side)
}

// bipartition runs Bipartition in a fresh workspace, so results of
// successive calls never alias each other.
func bipartition(g *graph.Graph) Result {
	return new(Workspace).Bipartition(g)
}
