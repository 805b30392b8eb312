package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gputopo/internal/schedcore"
	"gputopo/internal/stats"
)

// testGrid is small enough to run in well under a second but still spans
// every axis: 4 policies × 1 machine count × 2 job counts × 2 replicas.
func testGrid() Grid {
	return Grid{
		Name:           "test",
		Machines:       []int{2},
		Jobs:           []int{20, 40},
		Replicas:       2,
		BaseSeed:       7,
		RatePerMachine: 2,
	}
}

func TestGridExpansion(t *testing.T) {
	pts := testGrid().Points()
	if len(pts) != 4*2*2 {
		t.Fatalf("points = %d, want 16", len(pts))
	}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
	}
	// Policies vary innermost: the first four points share one workload.
	for i := 1; i < 4; i++ {
		if pts[i].Seed != pts[0].Seed || pts[i].Jobs != pts[0].Jobs {
			t.Fatalf("point %d does not share the first point's workload", i)
		}
		if pts[i].Policy == pts[0].Policy {
			t.Fatalf("point %d repeats policy %v", i, pts[0].Policy)
		}
	}
	// Replicas of one cell get distinct derived seeds.
	if pts[0].Seed == pts[4].Seed {
		t.Fatal("replica 0 and 1 share a seed")
	}
	// Expansion is a pure function: expanding twice gives identical points.
	again := testGrid().Points()
	for i := range pts {
		if pts[i].Seed != again[i].Seed || pts[i].cellKey() != again[i].cellKey() {
			t.Fatalf("expansion not deterministic at point %d", i)
		}
	}
}

func TestSeedDerivation(t *testing.T) {
	if stats.DeriveSeed(1, "a") == stats.DeriveSeed(1, "b") {
		t.Fatal("different keys collide")
	}
	if stats.DeriveSeed(1, "a") == stats.DeriveSeed(2, "a") {
		t.Fatal("different bases collide")
	}
	if stats.DeriveSeed(1, "a") != stats.DeriveSeed(1, "a") {
		t.Fatal("derivation not pure")
	}
	seeds := stats.ReplicaSeeds(42, 5)
	longer := stats.ReplicaSeeds(42, 8)
	for i := range seeds {
		if seeds[i] != longer[i] {
			t.Fatalf("replica %d seed changed when more replicas requested", i)
		}
	}
	// Grids inherit the same continuity: growing Replicas from 1 to 2
	// must not change replica 0's seed.
	one := Grid{BaseSeed: 42, Replicas: 1}.Points()
	two := Grid{BaseSeed: 42, Replicas: 2}.Points()
	if one[0].Seed != two[0].Seed {
		t.Fatalf("replica 0 seed changed when grid grew: %d != %d", one[0].Seed, two[0].Seed)
	}
}

// TestDeterminismAcrossWorkerCounts is the engine's core guarantee: the
// serialized artifact is byte-identical whether the sweep runs serially
// or on a saturated pool.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	g := testGrid()
	serial, err := Run(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(g, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sj, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("JSON artifacts differ between -workers=1 and -workers=8:\nserial %d bytes, parallel %d bytes", len(sj), len(pj))
	}
	if !bytes.Equal(serial.CSV(), parallel.CSV()) {
		t.Fatal("CSV artifacts differ between worker counts")
	}
}

func TestReportShape(t *testing.T) {
	rep, err := Run(testGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 16 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	// 4 policies × 2 job counts = 8 cells, 2 replicas each.
	if len(rep.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Replicas != 2 {
			t.Fatalf("cell %v replicas = %d", c.Policy, c.Replicas)
		}
		if c.Makespan.N != 2 || c.Makespan.Mean <= 0 {
			t.Fatalf("cell %v makespan summary %+v", c.Policy, c.Makespan)
		}
	}
	for _, p := range rep.Points {
		if p.JobsFinished != p.Point.Jobs {
			t.Fatalf("point %d finished %d of %d jobs", p.Index, p.JobsFinished, p.Point.Jobs)
		}
		if p.Sim == nil {
			t.Fatalf("point %d missing raw result", p.Index)
		}
		if p.Makespan <= 0 {
			t.Fatalf("point %d makespan %f", p.Index, p.Makespan)
		}
	}
	if out := rep.Render(); !strings.Contains(out, "TOPO-AWARE-P") {
		t.Fatal("render missing policy row")
	}
	// JSON round-trips through the enum marshalers.
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(js, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Points[0].Policy != rep.Points[0].Policy {
		t.Fatal("policy did not round-trip")
	}
	if lines := bytes.Count(rep.CSV(), []byte("\n")); lines != 17 {
		t.Fatalf("CSV lines = %d, want header+16", lines)
	}
}

func TestProtoEngineSweep(t *testing.T) {
	rep, err := Run(Grid{Name: "proto", Source: SourceTable1, Engine: EngineProto, BaseSeed: 42}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 4 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Proto == nil {
			t.Fatalf("point %d missing prototype result", p.Index)
		}
		if p.JobsFinished != 6 {
			t.Fatalf("point %d finished %d jobs, want 6 (Table 1)", p.Index, p.JobsFinished)
		}
	}
	if rep.ByPolicy(schedcore.TopoAwareP) == nil {
		t.Fatal("ByPolicy lookup failed")
	}
}

func TestNamedGrids(t *testing.T) {
	for _, name := range GridNames() {
		g, err := Named(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name != name {
			t.Fatalf("grid %q reports name %q", name, g.Name)
		}
		if len(g.Points()) == 0 {
			t.Fatalf("grid %q expands to zero points", name)
		}
		if GridDescription(name) == "" {
			t.Fatalf("grid %q has no description", name)
		}
	}
	if _, err := Named("no-such-grid", 1); err == nil {
		t.Fatal("unknown grid did not error")
	}
	if g, _ := Named("smoke", 42); len(g.Points()) < 24 {
		t.Fatalf("smoke grid has %d points, want >= 24", len(g.Points()))
	}
}

func TestForEachErrorAndOrder(t *testing.T) {
	out := make([]int, 50)
	err := ForEach(50, 8, func(i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	err = ForEach(10, 4, func(i int) error {
		if i == 3 || i == 7 {
			return errTest(i)
		}
		return nil
	})
	if err == nil || err.Error() != "err-3" {
		t.Fatalf("want lowest-index error err-3, got %v", err)
	}
}

type errTest int

func (e errTest) Error() string { return "err-" + string(rune('0'+int(e))) }
