package experiments

import (
	"strings"
	"testing"

	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/schedcore"
)

// These tests assert the *shape* of every reproduced figure — who wins, by
// roughly what factor, where crossovers fall — as EXPERIMENTS.md records.

func TestFig3Shape(t *testing.T) {
	rows := Fig3Breakdown()
	if len(rows) != 3*4*2 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]Fig3Row{}
	for _, r := range rows {
		byKey[r.Model.String()+r.Strategy+string(rune('0'+r.Batch%10))] = r
	}
	// AlexNet batch 1 packed: communication dominates (paper ≈2s of 3s).
	a1 := byKey["AlexNetpack1"]
	if a1.CommFrac < 0.55 || a1.CommFrac > 0.75 {
		t.Fatalf("AlexNet b=1 pack comm fraction %.2f, want ≈0.66", a1.CommFrac)
	}
	// Spread always has a larger comm share than pack.
	for _, r := range rows {
		if r.Strategy != "pack" {
			continue
		}
		spread := byKey[r.Model.String()+"spread"+string(rune('0'+r.Batch%10))]
		if spread.CommFrac <= r.CommFrac {
			t.Fatalf("%v b=%d: spread comm %.3f <= pack %.3f",
				r.Model, r.Batch, spread.CommFrac, r.CommFrac)
		}
	}
	// GoogLeNet communicates less than AlexNet at every batch.
	for _, b := range []int{1, 4, 32, 128} {
		g := byKey["GoogLeNetpack"+string(rune('0'+b%10))]
		a := byKey["AlexNetpack"+string(rune('0'+b%10))]
		if g.CommFrac >= a.CommFrac {
			t.Fatalf("b=%d: GoogLeNet comm %.3f >= AlexNet %.3f", b, g.CommFrac, a.CommFrac)
		}
	}
	if out := RenderFig3(rows); !strings.Contains(out, "AlexNet") {
		t.Fatal("render missing model")
	}
}

func TestFig4Shape(t *testing.T) {
	rows := Fig4PackSpread()
	byModel := map[perfmodel.NN]map[int]float64{}
	for _, r := range rows {
		if byModel[r.Model] == nil {
			byModel[r.Model] = map[int]float64{}
		}
		byModel[r.Model][r.Batch] = r.Speedup
	}
	// Headline: AlexNet ≈1.30x at batch 1.
	if s := byModel[perfmodel.AlexNet][1]; s < 1.25 || s > 1.37 {
		t.Fatalf("AlexNet b=1 speedup %.3f", s)
	}
	// Even performance for batch >= 16 (within 10%).
	for _, b := range []int{16, 32, 64, 128} {
		if s := byModel[perfmodel.AlexNet][b]; s > 1.10 {
			t.Fatalf("AlexNet b=%d speedup %.3f, want ≈1.0", b, s)
		}
	}
	// GoogLeNet flat.
	for b, s := range byModel[perfmodel.GoogLeNet] {
		if s > 1.06 {
			t.Fatalf("GoogLeNet b=%d speedup %.3f", b, s)
		}
	}
	if out := RenderFig4(rows); !strings.Contains(out, "speedup") {
		t.Fatal("render broken")
	}
}

func TestFig5Shape(t *testing.T) {
	series, err := Fig5Bandwidth(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	// Mean bandwidth decreases monotonically with batch size, with a
	// large gap between batch 1 and batch 128 (paper: ≈40 vs ≈6 GB/s).
	for i := 1; i < len(series); i++ {
		if series[i].Mean >= series[i-1].Mean {
			t.Fatalf("mean bandwidth not decreasing: batch %d %.2f >= batch %d %.2f",
				series[i].Batch, series[i].Mean, series[i-1].Batch, series[i-1].Mean)
		}
	}
	if ratio := series[0].Mean / series[3].Mean; ratio < 5 {
		t.Fatalf("b1/b128 bandwidth ratio %.1f, want > 5", ratio)
	}
	if out := RenderFig5(series); !strings.Contains(out, "batch") {
		t.Fatal("render broken")
	}
}

func TestFig6Shape(t *testing.T) {
	cells := Fig6Interference()
	if len(cells) != 16 {
		t.Fatalf("cells = %d", len(cells))
	}
	get := func(v, c jobgraph.BatchClass) float64 {
		for _, cell := range cells {
			if cell.Victim == v && cell.Causer == c {
				return cell.Slowdown
			}
		}
		t.Fatalf("missing cell %v/%v", v, c)
		return 0
	}
	if s := get(jobgraph.BatchTiny, jobgraph.BatchTiny); s < 0.28 || s > 0.32 {
		t.Fatalf("tiny+tiny = %.3f, want ≈0.30", s)
	}
	if s := get(jobgraph.BatchTiny, jobgraph.BatchBig); s < 0.22 || s > 0.26 {
		t.Fatalf("big→tiny = %.3f, want ≈0.24", s)
	}
	if s := get(jobgraph.BatchSmall, jobgraph.BatchBig); s < 0.19 || s > 0.23 {
		t.Fatalf("big→small = %.3f, want ≈0.21", s)
	}
	if s := get(jobgraph.BatchBig, jobgraph.BatchBig); s > 0.05 {
		t.Fatalf("big+big = %.3f, want ≈0", s)
	}
	if out := RenderFig6(cells); !strings.Contains(out, "victim") {
		t.Fatal("render broken")
	}
}

func TestPCIeShape(t *testing.T) {
	rows := PCIeComparison()
	for _, r := range rows {
		if r.NVLinkSpeedup <= r.PCIeSpeedup && r.Batch <= 16 {
			t.Fatalf("b=%d: NVLink %.3f <= PCIe %.3f", r.Batch, r.NVLinkSpeedup, r.PCIeSpeedup)
		}
		if r.PCIeSpeedup < 1 {
			t.Fatalf("b=%d: PCIe speedup below 1", r.Batch)
		}
	}
	if out := RenderPCIe(rows); !strings.Contains(out, "NVLink") {
		t.Fatal("render broken")
	}
}

func TestFig8Shape(t *testing.T) {
	mp, protos, err := Fig8Prototype(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Results) != 4 || len(protos) != 4 {
		t.Fatal("missing policies")
	}
	bf := mp.ByPolicy(schedcore.BestFit)
	tp := mp.ByPolicy(schedcore.TopoAwareP)
	if tp.SLOViolations() != 0 {
		t.Fatalf("TOPO-AWARE-P violations = %d", tp.SLOViolations())
	}
	if bf.SLOViolations() == 0 {
		t.Fatal("BF should violate SLOs in the Table 1 scenario")
	}
	speedup := bf.Makespan / tp.Makespan
	if speedup < 1.15 || speedup > 1.45 {
		t.Fatalf("cumulative speedup %.3f, want ≈1.2-1.3x (paper ≈1.30x)", speedup)
	}
	out := RenderFig8(mp)
	for _, frag := range []string{"GPU allocation timeline", "JOB'S QOS", "WAITING"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q", frag)
		}
	}
}

func TestValidationAgreement(t *testing.T) {
	rows, err := Validate(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RelativeError > 0.05 || r.RelativeError < -0.05 {
			t.Fatalf("%v: prototype and simulator diverge %.1f%%", r.Policy, r.RelativeError*100)
		}
	}
	if out := RenderValidation(rows); !strings.Contains(out, "prototype") {
		t.Fatal("render broken")
	}
}

func TestScenarioShape(t *testing.T) {
	// Scenario 1 at its published scale (100 jobs, 5 machines) must show
	// the paper's Figure 10 ordering: TOPO-AWARE-P has no SLO violations,
	// the least waiting, and the best placement-quality slowdown.
	mp, err := Scenario(100, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	tp := mp.ByPolicy(schedcore.TopoAwareP)
	if tp.SLOViolations() != 0 {
		t.Fatalf("TOPO-AWARE-P violations = %d", tp.SLOViolations())
	}
	for _, r := range mp.Results {
		if r.Policy == schedcore.TopoAwareP {
			continue
		}
		if r.SLOViolations() == 0 {
			t.Fatalf("%v unexpectedly has zero SLO violations", r.Policy)
		}
		if r.TotalWait() < tp.TotalWait() {
			t.Fatalf("%v waits less than TOPO-AWARE-P (%f < %f)",
				r.Policy, r.TotalWait(), tp.TotalWait())
		}
		if r.MeanSlowdownQoS() < tp.MeanSlowdownQoS()-1e-9 {
			t.Fatalf("%v has better QoS slowdown than TOPO-AWARE-P", r.Policy)
		}
		if r.Makespan < tp.Makespan {
			t.Fatalf("%v has shorter cumulative time than TOPO-AWARE-P", r.Policy)
		}
	}
	if out := RenderScenario("s", mp); !strings.Contains(out, "cumulative") {
		t.Fatal("render broken")
	}
}

func TestOverheadShape(t *testing.T) {
	rows, err := Overhead(100, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	var greedy, topo float64
	for _, r := range rows {
		switch r.Policy {
		case schedcore.FCFS, schedcore.BestFit:
			greedy += float64(r.MeanDecision)
		default:
			topo += float64(r.MeanDecision)
		}
	}
	// §5.5.3: topology-aware decisions cost several times more.
	if topo <= greedy {
		t.Fatalf("topo decisions (%.0fns) not more expensive than greedy (%.0fns)", topo/2, greedy/2)
	}
	if out := RenderOverhead(rows); !strings.Contains(out, "decision") {
		t.Fatal("render broken")
	}
}

func TestLevelWeightAblation(t *testing.T) {
	rows, err := LevelWeightAblation([]float64{10, 20, 50})
	if err != nil {
		t.Fatal(err)
	}
	// §4.1.2: only the ordering of weights matters; the schedule should
	// not change.
	for i := 1; i < len(rows); i++ {
		if rows[i].Makespan != rows[0].Makespan {
			t.Fatalf("socket weight %g changed the makespan: %.2f vs %.2f",
				rows[i].SocketWeight, rows[i].Makespan, rows[0].Makespan)
		}
	}
	if out := RenderWeightAblation(rows); !strings.Contains(out, "socket weight") {
		t.Fatal("render broken")
	}
}

func TestThresholdSweepShape(t *testing.T) {
	rows, err := ThresholdSweep([]float64{0, 0.9}, 40, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 0 disables postponement: zero low-utility postponements
	// means SLO violations can occur; a high threshold forces waiting.
	if rows[1].TotalWait < rows[0].TotalWait {
		t.Fatalf("higher threshold should not reduce waiting: %f vs %f",
			rows[1].TotalWait, rows[0].TotalWait)
	}
	if out := RenderThresholdSweep(rows); !strings.Contains(out, "min utility") {
		t.Fatal("render broken")
	}
}

func TestAlphaSweep(t *testing.T) {
	rows, err := AlphaSweep([]float64{0, 1.0 / 3, 0.8}, 40, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if out := RenderAlphaSweep(rows); !strings.Contains(out, "αcc") {
		t.Fatal("render broken")
	}
}
