package metrics

import (
	"strings"
	"testing"

	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/topology"
	"gputopo/internal/workload"
)

func table1Results(t *testing.T) []*simulator.Result {
	t.Helper()
	topo := topology.Power8Minsky()
	var out []*simulator.Result
	for _, pol := range schedcore.AllPolicies() {
		res, err := simulator.Run(simulator.Config{Topology: topo, Policy: pol}, workload.Table1())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func TestSortedSlowdownsDescending(t *testing.T) {
	res := table1Results(t)[0]
	for _, includeWait := range []bool{false, true} {
		sl := SortedSlowdowns(res, includeWait)
		if len(sl) != 6 {
			t.Fatalf("slowdowns = %d", len(sl))
		}
		for i := 1; i < len(sl); i++ {
			if sl[i] > sl[i-1] {
				t.Fatal("slowdowns not sorted worst to best")
			}
		}
	}
}

func TestSpeedup(t *testing.T) {
	a := &simulator.Result{Makespan: 200}
	b := &simulator.Result{Makespan: 100}
	if Speedup(a, b) != 2 {
		t.Fatalf("speedup = %v", Speedup(a, b))
	}
	if got := Speedup(a, &simulator.Result{}); got <= 1e308 {
		t.Fatal("zero makespan should give +Inf speedup")
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"col-a", "b"}, [][]string{{"x", "1"}, {"longer", "2"}})
	if !strings.Contains(out, "col-a") || !strings.Contains(out, "longer") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatal("separator width mismatch")
	}
}

func TestLineChart(t *testing.T) {
	out := LineChart("test chart", []Series{
		{Name: "s1", Points: []Point{{X: 0, Y: 0}, {X: 1, Y: 1}}},
		{Name: "s2", Points: []Point{{X: 0, Y: 1}, {X: 1, Y: 0}}},
	}, 32, 8)
	if !strings.Contains(out, "test chart") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "*=s1") || !strings.Contains(out, "+=s2") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("marks missing")
	}
}

func TestLineChartEmpty(t *testing.T) {
	out := LineChart("empty", nil, 32, 8)
	if !strings.Contains(out, "(no data)") {
		t.Fatalf("empty chart rendering:\n%s", out)
	}
}

func TestLineChartDegenerateRange(t *testing.T) {
	// A single point must not divide by zero.
	out := LineChart("dot", []Series{{Name: "p", Points: []Point{{X: 5, Y: 5}}}}, 20, 5)
	if !strings.Contains(out, "*") {
		t.Fatalf("single point not plotted:\n%s", out)
	}
}

func TestTimelineRendering(t *testing.T) {
	res := table1Results(t)[0]
	out := Timeline(res, 4, 60)
	for _, frag := range []string{"GPU0", "GPU3", "A=J0", "F=J5"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("timeline missing %q:\n%s", frag, out)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	results := table1Results(t)
	out := CompareRuns(results)
	for _, pol := range schedcore.AllPolicies() {
		if !strings.Contains(out, pol.String()) {
			t.Fatalf("comparison missing %v:\n%s", pol, out)
		}
	}
	if !strings.Contains(out, "1.00x") {
		t.Fatal("best policy should show 1.00x")
	}
}

func TestSlowdownChart(t *testing.T) {
	results := table1Results(t)
	out := SlowdownChart("qos", results, false, 48, 8)
	if !strings.Contains(out, "qos") || !strings.Contains(out, "TOPO-AWARE-P") {
		t.Fatalf("slowdown chart:\n%s", out)
	}
}
