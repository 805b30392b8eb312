package sweep

import (
	"math"
	"os"
	"strings"
	"testing"
)

// makeReport builds a two-cell report with the given makespans, bypassing
// the engine — diffing is pure data-joining.
func makeReport(name string, makespans map[string]float64) *Report {
	rep := &Report{Grid: Grid{Name: name}}
	for _, key := range []string{"A", "B", "C"} {
		m, ok := makespans[key]
		if !ok {
			continue
		}
		c := CellSummary{Jobs: 10, Replicas: 1}
		switch key {
		case "A":
			c.Machines = 1
		case "B":
			c.Machines = 2
		case "C":
			c.Machines = 3
		}
		c.Makespan.Mean = m
		c.MeanQoS.Mean = 1
		c.MeanQoSWait.Mean = 1
		c.TotalWait.Mean = 1
		rep.Cells = append(rep.Cells, c)
	}
	return rep
}

func TestDiffExactEqual(t *testing.T) {
	old := makeReport("g", map[string]float64{"A": 100, "B": 200})
	d := Diff(old, old)
	if d.HasRegressions() || d.Improvements != 0 {
		t.Fatalf("self-diff not clean: %+v", d)
	}
	if d.Unchanged != 2*len(diffMetrics) {
		t.Fatalf("unchanged = %d, want %d", d.Unchanged, 2*len(diffMetrics))
	}
	if md := d.Markdown(); !strings.Contains(md, "✅ no regressions") {
		t.Fatalf("markdown verdict wrong:\n%s", md)
	}
	// Sweeps are deterministic, so the differ has no tolerance: the
	// smallest step either way is a delta.
	for _, tc := range []struct {
		new    float64
		status DeltaStatus
	}{
		{math.Nextafter(100, 101), DeltaRegression},
		{math.Nextafter(100, 99), DeltaImprovement},
	} {
		if got := Diff(old, makeReport("g", map[string]float64{"A": tc.new, "B": 200})).Deltas[0].Status; got != tc.status {
			t.Fatalf("100 -> %v: status %v, want %v", tc.new, got, tc.status)
		}
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	old := makeReport("g", map[string]float64{"A": 0})
	d := Diff(old, makeReport("g", map[string]float64{"A": 1}))
	if !d.HasRegressions() || !math.IsInf(d.Deltas[0].Rel, 1) {
		t.Fatalf("0 -> 1 not flagged: %+v", d.Deltas[0])
	}
	d = Diff(old, makeReport("g", map[string]float64{"A": 0}))
	if d.HasRegressions() {
		t.Fatal("0 -> 0 flagged as regression")
	}
}

func TestDiffNaN(t *testing.T) {
	nan := math.NaN()
	old := makeReport("g", map[string]float64{"A": nan})
	// NaN on both sides: consistently degenerate, equal.
	if d := Diff(old, makeReport("g", map[string]float64{"A": nan})); d.HasRegressions() {
		t.Fatal("NaN == NaN flagged as regression")
	}
	// NaN appearing or disappearing: regression either way.
	if d := Diff(makeReport("g", map[string]float64{"A": 5}), old); !d.HasRegressions() {
		t.Fatal("5 -> NaN not flagged")
	}
	if d := Diff(old, makeReport("g", map[string]float64{"A": 5})); !d.HasRegressions() {
		t.Fatal("NaN -> 5 not flagged")
	}
}

func TestDiffMissingAndAddedCells(t *testing.T) {
	old := makeReport("g", map[string]float64{"A": 100, "B": 200})
	new := makeReport("g", map[string]float64{"A": 100, "C": 300})
	d := Diff(old, new)
	if len(d.MissingCells) != 1 || !d.HasRegressions() {
		t.Fatalf("missing cell not flagged: %+v", d)
	}
	if len(d.AddedCells) != 1 {
		t.Fatalf("added cell not reported: %+v", d)
	}
	md := d.Markdown()
	if !strings.Contains(md, "missing from the new report") || !strings.Contains(md, "only in the new report") {
		t.Fatalf("markdown missing cell sections:\n%s", md)
	}
}

func TestDiffMarkdownTable(t *testing.T) {
	old := makeReport("g", map[string]float64{"A": 100})
	d := Diff(old, makeReport("g", map[string]float64{"A": 150}))
	md := d.Markdown()
	for _, want := range []string{"| cell | metric |", "makespan_s", "+50.00%", "REGRESSION", "❌"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	// Unchanged metrics stay out of the table.
	if strings.Contains(md, "| mean_slowdown_qos |") {
		t.Fatalf("unchanged metric listed in delta table:\n%s", md)
	}
}

// TestGoldenBaseline keeps the committed CI baseline honest: it must
// load, self-diff clean, and belong to the smoke grid. (CI's bench-smoke
// job diffs a fresh run against it; regenerate with
// `go run ./cmd/toposweep -grid smoke -out internal/sweep/testdata/golden_smoke.json`
// whenever an intentional behavior change shifts the numbers.)
func TestGoldenBaseline(t *testing.T) {
	data, err := os.ReadFile("testdata/golden_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := LoadReport(data, "golden_smoke")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grid.Name != "smoke" || len(rep.Cells) == 0 {
		t.Fatalf("golden baseline is grid %q with %d cells", rep.Grid.Name, len(rep.Cells))
	}
	if d := Diff(rep, rep); d.HasRegressions() {
		t.Fatalf("golden self-diff not clean:\n%s", d.Markdown())
	}
}

// TestGoldenHeteroBaseline does the same for the heterogeneous-cluster
// baseline CI diffs against the `hetero` named grid. Regenerate with
// `go run ./cmd/toposweep -grid hetero -out internal/sweep/testdata/golden_hetero.json`.
func TestGoldenHeteroBaseline(t *testing.T) {
	data, err := os.ReadFile("testdata/golden_hetero.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := LoadReport(data, "golden_hetero")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grid.Name != "hetero" || len(rep.Cells) == 0 {
		t.Fatalf("golden hetero baseline is grid %q with %d cells", rep.Grid.Name, len(rep.Cells))
	}
	// Every cell of the baseline runs on a heterogeneous mix.
	for _, c := range rep.Cells {
		if len(c.Topology.Mix) == 0 {
			t.Fatalf("hetero baseline cell %q has no machine mix", c.Key())
		}
	}
	if d := Diff(rep, rep); d.HasRegressions() {
		t.Fatalf("golden hetero self-diff not clean:\n%s", d.Markdown())
	}
}

// TestDiffRealSweepRoundTrip exercises the full artifact path: run, write
// JSON, load, self-diff.
func TestDiffRealSweepRoundTrip(t *testing.T) {
	rep, err := Run(testGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReport(js, "x")
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(rep, loaded)
	if d.HasRegressions() || d.Improvements != 0 {
		t.Fatalf("artifact round-trip self-diff not clean:\n%s", d.Markdown())
	}
	if _, err := LoadReport([]byte(`{"grid":{}}`), "x"); err == nil {
		t.Fatal("cell-less artifact accepted")
	}
	if _, err := LoadReport([]byte(`nope`), "x"); err == nil {
		t.Fatal("malformed artifact accepted")
	}
}

// TestDiffDistributionMetrics covers the stddev/P95 companions: a change
// that keeps every mean but fattens the spread or the tail must register.
func TestDiffDistributionMetrics(t *testing.T) {
	old := makeReport("g", map[string]float64{"A": 100})
	old.Cells[0].Makespan.Stddev = 10
	old.Cells[0].Makespan.P95 = 120
	upd := makeReport("g", map[string]float64{"A": 100})
	upd.Cells[0].Makespan.Stddev = 16 // +60% spread
	upd.Cells[0].Makespan.P95 = 132   // +10% tail

	// Both distribution drifts are regressions, the mean is unchanged.
	d := Diff(old, upd)
	if d.Regressions != 2 {
		t.Fatalf("regressions = %d, want 2 (stddev + p95)", d.Regressions)
	}
	md := d.Markdown()
	if !strings.Contains(md, "makespan_s.stddev") || !strings.Contains(md, "makespan_s.p95") {
		t.Fatalf("markdown missing distribution rows:\n%s", md)
	}

	// The metric list carries every distribution companion.
	var names []string
	for _, m := range diffMetrics {
		names = append(names, m.name)
	}
	want := map[string]bool{"makespan_s": true, "makespan_s.stddev": true, "makespan_s.p95": true,
		"slo_violations.p95": true, "high_pri_wait_s": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("diff metrics missing %v (got %v)", want, names)
	}
	if len(names) != 18 {
		t.Fatalf("expected 18 metrics (6 bases × mean/stddev/p95), got %d", len(names))
	}
}
