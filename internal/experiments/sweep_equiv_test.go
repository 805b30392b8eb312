package experiments

import (
	"testing"

	"gputopo/internal/caffesim"
	"gputopo/internal/core"
	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/topology"
	"gputopo/internal/workload"
)

// These tests pin the sweep-engine refactor to the pre-refactor behaviour:
// each legacy* function is a verbatim copy of the hand-rolled serial loop
// the experiment used before it became a grid definition, and the results
// must agree exactly — same placements, same timings, bit for bit.

func legacyScenario(jobs, machines int, seed uint64) (*MultiPolicy, error) {
	topo := topology.Cluster(machines, topology.KindMinsky)
	rate := 10 * float64(machines) / 5
	stream, err := workload.Generate(workload.GenConfig{
		Jobs:        jobs,
		ArrivalRate: rate,
		Seed:        seed,
	}, topo)
	if err != nil {
		return nil, err
	}
	out := &MultiPolicy{}
	for _, pol := range schedcore.AllPolicies() {
		res, err := simulator.Run(simulator.Config{Topology: topo, Policy: pol}, stream)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, res)
	}
	return out, nil
}

func legacyFig9(seed uint64) (*MultiPolicy, error) {
	topo := topology.Power8Minsky()
	out := &MultiPolicy{}
	for _, pol := range schedcore.AllPolicies() {
		res, err := simulator.Run(simulator.Config{
			Topology:       topo,
			Policy:         pol,
			Seed:           seed,
			SampleInterval: 4,
		}, workload.Table1())
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, res)
	}
	return out, nil
}

func legacyFig8(seed uint64) (map[schedcore.Policy]*caffesim.Result, error) {
	topo := topology.Power8Minsky()
	protos := map[schedcore.Policy]*caffesim.Result{}
	for _, pol := range schedcore.AllPolicies() {
		res, err := caffesim.Run(caffesim.Config{
			Topology: topo,
			Policy:   pol,
			Seed:     seed,
		}, workload.Table1())
		if err != nil {
			return nil, err
		}
		protos[pol] = res
	}
	return protos, nil
}

func legacyAlphaSweep(alphas []float64, jobs, machines int, seed uint64) ([]AlphaRow, error) {
	topo := topology.Cluster(machines, topology.KindMinsky)
	stream, err := workload.Generate(workload.GenConfig{Jobs: jobs, Seed: seed}, topo)
	if err != nil {
		return nil, err
	}
	var rows []AlphaRow
	for _, a := range alphas {
		rest := (1 - a) / 2
		res, err := simulator.Run(simulator.Config{
			Topology: topo,
			Policy:   schedcore.TopoAwareP,
			Weights:  core.Weights{CommCost: a, Interference: rest, Fragmentation: rest},
		}, stream)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AlphaRow{
			AlphaCC:  a,
			Makespan: res.Makespan,
			SLO:      res.SLOViolations(),
			MeanQoS:  res.MeanSlowdownQoS(),
		})
	}
	return rows, nil
}

func legacyThresholdSweep(thresholds []float64, jobs, machines int, seed uint64) ([]ThresholdRow, error) {
	topo := topology.Cluster(machines, topology.KindMinsky)
	var rows []ThresholdRow
	for _, th := range thresholds {
		stream, err := workload.Generate(workload.GenConfig{Jobs: jobs, Seed: seed}, topo)
		if err != nil {
			return nil, err
		}
		for _, j := range stream {
			if j.GPUs > 1 {
				j.MinUtility = th
			}
		}
		res, err := simulator.Run(simulator.Config{
			Topology: topo,
			Policy:   schedcore.TopoAwareP,
		}, stream)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ThresholdRow{
			MinUtility: th,
			Makespan:   res.Makespan,
			SLO:        res.SLOViolations(),
			TotalWait:  res.TotalWait(),
		})
	}
	return rows, nil
}

func legacyLevelWeightAblation(socketWeights []float64) ([]WeightAblationRow, error) {
	var rows []WeightAblationRow
	for _, w := range socketWeights {
		topo := topology.Power8MinskyWeights(topology.LevelWeights{Socket: w})
		res, err := simulator.Run(simulator.Config{
			Topology: topo,
			Policy:   schedcore.TopoAwareP,
		}, workload.Table1())
		if err != nil {
			return nil, err
		}
		rows = append(rows, WeightAblationRow{
			SocketWeight: w,
			Makespan:     res.Makespan,
			SLO:          res.SLOViolations(),
		})
	}
	return rows, nil
}

// sameResult compares the observable outcome of two simulation runs
// exactly: per-job placements and timings must match bit for bit.
func sameResult(t *testing.T, label string, got, want *simulator.Result) {
	t.Helper()
	if got.Policy != want.Policy {
		t.Fatalf("%s: policy %v != %v", label, got.Policy, want.Policy)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("%s/%v: makespan %v != %v", label, got.Policy, got.Makespan, want.Makespan)
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s/%v: %d jobs != %d", label, got.Policy, len(got.Jobs), len(want.Jobs))
	}
	for i := range got.Jobs {
		g, w := got.Jobs[i], want.Jobs[i]
		if g.Job.ID != w.Job.ID || g.Start != w.Start || g.Finish != w.Finish ||
			g.Wait != w.Wait || g.Utility != w.Utility || g.SLOViolated != w.SLOViolated ||
			g.SlowdownQoS != w.SlowdownQoS || len(g.GPUs) != len(w.GPUs) {
			t.Fatalf("%s/%v job %s: %+v != %+v", label, got.Policy, g.Job.ID, g, w)
		}
		for k := range g.GPUs {
			if g.GPUs[k] != w.GPUs[k] {
				t.Fatalf("%s/%v job %s: GPUs %v != %v", label, got.Policy, g.Job.ID, g.GPUs, w.GPUs)
			}
		}
	}
	if got.SLOViolations() != want.SLOViolations() || got.TotalWait() != want.TotalWait() {
		t.Fatalf("%s/%v: aggregate metrics diverged", label, got.Policy)
	}
}

func TestScenarioMatchesLegacy(t *testing.T) {
	got, err := Scenario(40, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyScenario(40, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		sameResult(t, "scenario", got.Results[i], want.Results[i])
	}
}

func TestFig9MatchesLegacy(t *testing.T) {
	got, err := Fig9Validation(42)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyFig9(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		sameResult(t, "fig9", got.Results[i], want.Results[i])
		if len(got.Results[i].Samples) != len(want.Results[i].Samples) {
			t.Fatalf("fig9/%v: sample series length changed", want.Results[i].Policy)
		}
	}
}

func TestFig8MatchesLegacy(t *testing.T) {
	_, protos, err := Fig8Prototype(42)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyFig8(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range schedcore.AllPolicies() {
		sameResult(t, "fig8", &protos[pol].Result, &want[pol].Result)
		if len(protos[pol].Bandwidth) != len(want[pol].Bandwidth) {
			t.Fatalf("fig8/%v: bandwidth series changed", pol)
		}
	}
}

func TestAlphaSweepMatchesLegacy(t *testing.T) {
	alphas := []float64{0, 1.0 / 3, 0.8}
	got, err := AlphaSweep(alphas, 40, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyAlphaSweep(alphas, 40, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alpha row %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestLevelWeightAblationMatchesLegacy(t *testing.T) {
	weights := []float64{5, 20, 40, 100}
	got, err := LevelWeightAblation(weights)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyLevelWeightAblation(weights)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("level-weight row %d: %+v != %+v", i, got[i], want[i])
		}
	}
	// Empty inputs stay a no-op, like the legacy loops — not a grid
	// validation error.
	if rows, err := LevelWeightAblation(nil); err != nil || len(rows) != 0 {
		t.Fatalf("empty ablation: rows=%v err=%v", rows, err)
	}
	if rows, err := AlphaSweep(nil, 10, 1, 1); err != nil || len(rows) != 0 {
		t.Fatalf("empty alpha sweep: rows=%v err=%v", rows, err)
	}
	if rows, err := ThresholdSweep([]float64{}, 10, 1, 1); err != nil || len(rows) != 0 {
		t.Fatalf("empty threshold sweep: rows=%v err=%v", rows, err)
	}
}

func TestThresholdSweepMatchesLegacy(t *testing.T) {
	ths := []float64{0, 0.5, 0.9}
	got, err := ThresholdSweep(ths, 40, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyThresholdSweep(ths, 40, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("threshold row %d: %+v != %+v", i, got[i], want[i])
		}
	}
}
