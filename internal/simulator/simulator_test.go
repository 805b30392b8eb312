package simulator

import (
	"math"
	"slices"
	"testing"

	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/schedcore"
	"gputopo/internal/topology"
	"gputopo/internal/workload"
)

// engines runs each batch engine for the input checks both must make.
var engines = []struct {
	name string
	run  func(Config, []*job.Job) error
}{
	{"simulator", func(cfg Config, jobs []*job.Job) error {
		_, err := Run(cfg, jobs)
		return err
	}},
	{"prototype", func(cfg Config, jobs []*job.Job) error {
		_, err := RunPrototype(PrototypeConfig{Topology: cfg.Topology, Policy: cfg.Policy}, jobs)
		return err
	}},
}

func TestRunRequiresTopology(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			if err := eng.run(Config{}, nil); err == nil {
				t.Error("nil topology accepted")
			}
		})
	}
}

func TestRunRejectsInvalidJob(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			for _, bad := range []*job.Job{
				job.New("", perfmodel.AlexNet, 1, 1, 0.3, 0),  // no ID
				job.New("x", perfmodel.AlexNet, 0, 1, 0.3, 0), // no batch
			} {
				if err := eng.run(Config{Topology: topology.Power8Minsky()}, []*job.Job{bad}); err == nil {
					t.Errorf("invalid job (ID %q, batch %d) accepted", bad.ID, bad.BatchSize)
				}
			}
		})
	}
}

func TestSoloJobRunsAtIdealTime(t *testing.T) {
	topo := topology.Power8Minsky()
	j := job.New("solo", perfmodel.AlexNet, 1, 2, 0.5, 0)
	j.Iterations = 100
	res, err := Run(Config{Topology: topo, Policy: schedcore.TopoAware}, []*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if math.Abs(jr.Run-jr.Ideal) > 1e-6 {
		t.Fatalf("solo run %.4f != ideal %.4f", jr.Run, jr.Ideal)
	}
	if jr.SlowdownQoS != 0 || jr.Wait != 0 {
		t.Fatalf("solo job slowdown %.4f wait %.4f", jr.SlowdownQoS, jr.Wait)
	}
	if !jr.P2P {
		t.Fatal("solo 2-GPU job should get a P2P placement")
	}
	if res.Makespan != jr.Finish {
		t.Fatal("makespan mismatch")
	}
}

func TestCrossMachineJobsDoNotInterfere(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	a := job.New("a", perfmodel.AlexNet, 1, 4, 0.0, 0)
	a.Iterations = 100
	b := job.New("b", perfmodel.AlexNet, 1, 4, 0.0, 0)
	b.Iterations = 100
	res, err := Run(Config{Topology: topo, Policy: schedcore.TopoAware}, []*job.Job{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.SlowdownQoS > 1e-9 {
			t.Fatalf("job %s slowed %.4f on separate machines", jr.Job.ID, jr.SlowdownQoS)
		}
	}
}

func TestCoLocatedJobsInterfereMatchingFig6(t *testing.T) {
	// Two tiny-batch 2-GPU AlexNets on one Minsky: each packed on its
	// own socket, suffering the Figure 6 same-machine slowdown (≈30%).
	topo := topology.Power8Minsky()
	a := job.New("a", perfmodel.AlexNet, 1, 2, 0.0, 0)
	a.Iterations = 1000
	b := job.New("b", perfmodel.AlexNet, 1, 2, 0.0, 0)
	b.Iterations = 1000
	res, err := Run(Config{Topology: topo, Policy: schedcore.TopoAware}, []*job.Job{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.SlowdownQoS < 0.2 || jr.SlowdownQoS > 0.35 {
			t.Fatalf("job %s slowdown %.3f, want ≈0.30 (Figure 6)", jr.Job.ID, jr.SlowdownQoS)
		}
	}
}

func TestInterferenceEndsWhenCoRunnerFinishes(t *testing.T) {
	// A long job co-located with a short one: its effective slowdown is
	// between solo and fully-overlapped.
	topo := topology.Power8Minsky()
	long := job.New("long", perfmodel.AlexNet, 1, 2, 0.0, 0)
	long.Iterations = 2000
	short := job.New("short", perfmodel.AlexNet, 1, 2, 0.0, 0)
	short.Iterations = 200
	res, err := Run(Config{Topology: topo, Policy: schedcore.TopoAware}, []*job.Job{long, short})
	if err != nil {
		t.Fatal(err)
	}
	var longR JobResult
	for _, jr := range res.Jobs {
		if jr.Job.ID == "long" {
			longR = jr
		}
	}
	if longR.SlowdownQoS <= 0.0 {
		t.Fatal("long job should suffer some interference")
	}
	if longR.SlowdownQoS >= 0.29 {
		t.Fatalf("long job slowdown %.3f should be well below the full 0.30 (short co-runner left early)", longR.SlowdownQoS)
	}
}

func TestQueueedJobWaits(t *testing.T) {
	topo := topology.Power8Minsky()
	first := job.New("first", perfmodel.AlexNet, 128, 4, 0.0, 0)
	first.Iterations = 50
	second := job.New("second", perfmodel.AlexNet, 128, 4, 0.0, 1)
	second.Iterations = 50
	res, err := Run(Config{Topology: topo, Policy: schedcore.FCFS}, []*job.Job{first, second})
	if err != nil {
		t.Fatal(err)
	}
	var sec JobResult
	for _, jr := range res.Jobs {
		if jr.Job.ID == "second" {
			sec = jr
		}
	}
	if sec.Wait <= 0 {
		t.Fatal("second job should have waited for the first")
	}
	if sec.SlowdownQoSWait <= sec.SlowdownQoS {
		t.Fatal("waiting slowdown should exceed pure QoS slowdown")
	}
}

func TestDeterminism(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	jobs, err := workload.Generate(workload.GenConfig{Jobs: 30, Seed: 9}, topo)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(Config{Topology: topo, Policy: schedcore.TopoAwareP, Seed: 5}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Config{Topology: topo, Policy: schedcore.TopoAwareP, Seed: 5}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan {
		t.Fatalf("makespans differ: %v vs %v", r1.Makespan, r2.Makespan)
	}
	for i := range r1.Jobs {
		if r1.Jobs[i].Finish != r2.Jobs[i].Finish {
			t.Fatalf("job %s finish differs", r1.Jobs[i].Job.ID)
		}
	}
}

func TestJitterChangesRuntimesButNotPlacements(t *testing.T) {
	topo := topology.Power8Minsky()
	mk := func() []*job.Job {
		j := job.New("j", perfmodel.AlexNet, 1, 2, 0.5, 0)
		j.Iterations = 500
		return []*job.Job{j}
	}
	base, err := Run(Config{Topology: topo, Policy: schedcore.TopoAware}, mk())
	if err != nil {
		t.Fatal(err)
	}
	jit, err := Run(Config{Topology: topo, Policy: schedcore.TopoAware, JitterStddev: 0.05, Seed: 3}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if base.Makespan == jit.Makespan {
		t.Fatal("jitter had no effect")
	}
	if jit.Jobs[0].GPUs[0] != base.Jobs[0].GPUs[0] {
		t.Fatal("jitter changed placement")
	}
}

func TestTable1Regression(t *testing.T) {
	// Locks in the Figure 8 reproduction shape: the topology-aware
	// policies beat the greedy ones by ≈1.2-1.3x in cumulative time with
	// zero SLO violations and fully P2P multi-GPU placements.
	topo := topology.Power8Minsky()
	results := map[schedcore.Policy]*Result{}
	for _, pol := range schedcore.AllPolicies() {
		res, err := Run(Config{Topology: topo, Policy: pol}, workload.Table1())
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		results[pol] = res
	}
	bf := results[schedcore.BestFit]
	fc := results[schedcore.FCFS]
	tp := results[schedcore.TopoAwareP]

	if bf.SLOViolations() < 2 {
		t.Fatalf("BF violations = %d, want >= 2", bf.SLOViolations())
	}
	if tp.SLOViolations() != 0 {
		t.Fatalf("TOPO-AWARE-P violations = %d, want 0", tp.SLOViolations())
	}
	speedup := bf.Makespan / tp.Makespan
	if speedup < 1.15 || speedup > 1.45 {
		t.Fatalf("TOPO-AWARE-P speedup over BF = %.3f, want ≈1.2-1.3 (paper ≈1.30)", speedup)
	}
	if fc.Makespan <= tp.Makespan {
		t.Fatal("FCFS should be slower than TOPO-AWARE-P")
	}
	// TOPO-AWARE-P gives every multi-GPU job a P2P placement (Figure 8d).
	for _, jr := range tp.Jobs {
		if jr.Job.GPUs >= 2 && !jr.P2P {
			t.Fatalf("job %s lacks P2P under TOPO-AWARE-P", jr.Job.ID)
		}
	}
	// The greedy policies route at least one multi-GPU job through the
	// CPU (no P2P).
	routed := 0
	for _, jr := range bf.Jobs {
		if jr.Job.GPUs >= 2 && !jr.P2P {
			routed++
		}
	}
	if routed == 0 {
		t.Fatal("BF unexpectedly gave everyone P2P")
	}
}

func TestSamples(t *testing.T) {
	topo := topology.Power8Minsky()
	j := job.New("j", perfmodel.AlexNet, 1, 2, 0.5, 0)
	j.Iterations = 1000
	res, err := Run(Config{Topology: topo, Policy: schedcore.TopoAware, SampleInterval: 5}, []*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 10 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].Time <= res.Samples[i-1].Time {
			t.Fatal("sample times not increasing")
		}
	}
	// While the job runs, P2P bandwidth is positive and utility recorded.
	mid := res.Samples[len(res.Samples)/2]
	if mid.Running != 1 || mid.P2PBandwidth <= 0 || mid.MeanUtility <= 0 {
		t.Fatalf("mid sample = %+v", mid)
	}
}

// TestSamplesEndBeforeLastFinish: samples are taken at k·interval before
// the last finish — every such time, and nothing at or past the makespan.
func TestSamplesEndBeforeLastFinish(t *testing.T) {
	topo := topology.Cluster(4, topology.KindMinsky)
	const interval = 7
	for seed := uint64(1); seed <= 6; seed++ {
		jobs, err := workload.Generate(workload.GenConfig{Jobs: 40, Seed: seed}, topo)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Topology: topo, Policy: schedcore.TopoAware, SampleInterval: interval}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		var want []float64
		for at := 0.0; at < res.Makespan; at += interval {
			want = append(want, at)
		}
		got := make([]float64, len(res.Samples))
		for i, s := range res.Samples {
			got[i] = s.Time
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: makespan %.3f: %d samples, the last at %v; want %d, the last at %v",
				seed, res.Makespan, len(got), got[len(got)-1], len(want), want[len(want)-1])
		}
	}
}

func TestTimelineIntervals(t *testing.T) {
	topo := topology.Power8Minsky()
	res, err := Run(Config{Topology: topo, Policy: schedcore.FCFS}, workload.Table1())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 6 {
		t.Fatalf("timeline intervals = %d", len(res.Timeline))
	}
	for _, iv := range res.Timeline {
		if iv.Finish <= iv.Start {
			t.Fatalf("interval %+v inverted", iv)
		}
		if len(iv.GPUs) == 0 {
			t.Fatalf("interval %+v without GPUs", iv)
		}
	}
}

func TestResultAggregates(t *testing.T) {
	topo := topology.Power8Minsky()
	res, err := Run(Config{Topology: topo, Policy: schedcore.BestFit}, workload.Table1())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWait() < 0 {
		t.Fatal("negative total wait")
	}
	if res.MeanSlowdownQoS() < 0 || res.MeanSlowdownQoSWait() < res.MeanSlowdownQoS() {
		t.Fatal("slowdown aggregates inconsistent")
	}
	if res.SchedStats.Placements != 6 {
		t.Fatalf("placements = %d", res.SchedStats.Placements)
	}
}

func TestDuplicateJobIDsRejected(t *testing.T) {
	topo := topology.Power8Minsky()
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			a := job.New("dup", perfmodel.AlexNet, 1, 1, 0.3, 0)
			b := job.New("dup", perfmodel.AlexNet, 1, 1, 0.3, 1)
			if err := eng.run(Config{Topology: topo, Policy: schedcore.FCFS}, []*job.Job{a, b}); err == nil {
				t.Error("duplicate job IDs accepted")
			}
		})
	}
}
