package jobgraph

import (
	"testing"
	"testing/quick"
)

func TestBatchClassString(t *testing.T) {
	want := map[BatchClass]string{
		BatchTiny: "tiny", BatchSmall: "small", BatchMedium: "medium", BatchBig: "big",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if BatchClass(9).String() == "" {
		t.Fatal("unknown class must render")
	}
}

func TestBatchClassSizes(t *testing.T) {
	// Representative sizes per §3.1 (batch range 1..128).
	if BatchTiny.Size() != 1 || BatchSmall.Size() != 4 || BatchMedium.Size() != 32 || BatchBig.Size() != 128 {
		t.Fatalf("sizes: %d %d %d %d", BatchTiny.Size(), BatchSmall.Size(), BatchMedium.Size(), BatchBig.Size())
	}
}

func TestClassOfSizeRoundTrip(t *testing.T) {
	for c := BatchTiny; c <= BatchBig; c++ {
		if got := ClassOfSize(c.Size()); got != c {
			t.Fatalf("ClassOfSize(%d) = %v, want %v", c.Size(), got, c)
		}
	}
}

func TestClassOfSizeBoundaries(t *testing.T) {
	cases := map[int]BatchClass{
		1: BatchTiny, 2: BatchTiny,
		3: BatchSmall, 8: BatchSmall,
		9: BatchMedium, 32: BatchMedium,
		33: BatchBig, 128: BatchBig, 1000: BatchBig,
	}
	for size, want := range cases {
		if got := ClassOfSize(size); got != want {
			t.Fatalf("ClassOfSize(%d) = %v, want %v", size, got, want)
		}
	}
}

func TestCommWeightsMatchPaper(t *testing.T) {
	// §5.1: "ranging from 4 to 1, where 4 represents the smallest batch".
	want := map[BatchClass]float64{BatchTiny: 4, BatchSmall: 3, BatchMedium: 2, BatchBig: 1}
	for c, w := range want {
		if c.CommWeight() != w {
			t.Fatalf("CommWeight(%v) = %v, want %v", c, c.CommWeight(), w)
		}
	}
}

func TestAllToAllShape(t *testing.T) {
	g := AllToAll(4, 2.5)
	if g.Tasks() != 4 {
		t.Fatalf("tasks = %d", g.Tasks())
	}
	if len(g.g.Edges()) != 6 { // C(4,2)
		t.Fatalf("edges = %d", len(g.g.Edges()))
	}
	for _, e := range g.g.Edges() {
		if e.Weight != 2.5 {
			t.Fatalf("edge weight = %v", e.Weight)
		}
	}
	if g.Weight(0, 3) != 2.5 || g.Weight(3, 0) != 2.5 {
		t.Fatal("pairwise weight lookup failed")
	}
}

func TestAllToAllSingleTask(t *testing.T) {
	g := AllToAll(1, 4)
	if g.Tasks() != 1 || len(g.g.Edges()) != 0 {
		t.Fatal("single task graph should have no edges")
	}
	if g.CommIntensity() != 0 {
		t.Fatal("single task comm intensity should be 0")
	}
}

func TestRingShape(t *testing.T) {
	g := Ring(5, 1)
	if len(g.g.Edges()) != 5 {
		t.Fatalf("5-ring edges = %d", len(g.g.Edges()))
	}
	// Two tasks: a single edge, not a double edge.
	if g2 := Ring(2, 1); len(g2.g.Edges()) != 1 {
		t.Fatalf("2-ring edges = %d", len(g2.g.Edges()))
	}
	if g1 := Ring(1, 1); len(g1.g.Edges()) != 0 {
		t.Fatalf("1-ring edges = %d", len(g1.g.Edges()))
	}
}

func TestStarShape(t *testing.T) {
	g := Star(5, 2)
	if len(g.g.Edges()) != 4 {
		t.Fatalf("star edges = %d", len(g.g.Edges()))
	}
	for i := 1; i < 5; i++ {
		if g.Weight(0, i) != 2 {
			t.Fatalf("hub edge 0-%d missing", i)
		}
	}
	if g.Weight(1, 2) != 0 {
		t.Fatal("leaves must not be connected")
	}
}

func TestAllToAllEdgeCountProperty(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%10) + 1
		g := AllToAll(n, 1)
		return len(g.g.Edges()) == n*(n-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommWeightMonotoneInClass(t *testing.T) {
	// Smaller batches communicate more: weights strictly decrease.
	for c := BatchTiny; c < BatchBig; c++ {
		if c.CommWeight() <= (c + 1).CommWeight() {
			t.Fatalf("weight not decreasing at %v", c)
		}
	}
}
