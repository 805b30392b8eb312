package simulator

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/schedcore"
	"gputopo/internal/topology"
	"gputopo/internal/workload"
)

func TestSoloJobDuration(t *testing.T) {
	topo := topology.Power8Minsky()
	j := job.New("solo", perfmodel.AlexNet, 1, 2, 0.5, 0)
	j.Iterations = 500
	res, err := RunPrototype(PrototypeConfig{Topology: topo, Policy: schedcore.TopoAware}, []*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	want := 500 * perfmodel.IterationTime(perfmodel.AlexNet, 1, topo, jr.GPUs, 1)
	if math.Abs(jr.Run-want) > 1e-6 {
		t.Fatalf("run %.4f, want %.4f", jr.Run, want)
	}
}

// TestValidationAgainstSimulator is the §5.4 check: the prototype engine
// (iteration granularity) and the trace-driven simulator (continuous rate)
// must agree on every policy's cumulative time within iteration-boundary
// noise (Figure 9).
func TestValidationAgainstSimulator(t *testing.T) {
	topo := topology.Power8Minsky()
	for _, pol := range schedcore.AllPolicies() {
		proto, err := RunPrototype(PrototypeConfig{Topology: topo, Policy: pol}, workload.Table1())
		if err != nil {
			t.Fatalf("%v proto: %v", pol, err)
		}
		sim, err := Run(Config{Topology: topo, Policy: pol}, workload.Table1())
		if err != nil {
			t.Fatalf("%v sim: %v", pol, err)
		}
		rel := math.Abs(proto.Makespan-sim.Makespan) / sim.Makespan
		if rel > 0.05 {
			t.Fatalf("%v: prototype %.1f vs simulator %.1f (%.1f%% apart)",
				pol, proto.Makespan, sim.Makespan, rel*100)
		}
		// Same placements job by job.
		for i := range proto.Jobs {
			pj, sj := proto.Jobs[i], sim.Jobs[i]
			if pj.Job.ID != sj.Job.ID || len(pj.GPUs) != len(sj.GPUs) {
				t.Fatalf("%v: job results misaligned", pol)
			}
			for k := range pj.GPUs {
				if pj.GPUs[k] != sj.GPUs[k] {
					t.Fatalf("%v: %s placed on %v vs %v", pol, pj.Job.ID, pj.GPUs, sj.GPUs)
				}
			}
		}
	}
}

func TestBandwidthSeriesShape(t *testing.T) {
	// Figure 5 shape: smaller batches sustain higher interconnect usage.
	topo := topology.Power8Minsky()
	means := map[int]float64{}
	for _, b := range []int{1, 128} {
		j := job.New("bw", perfmodel.AlexNet, b, 2, 0.5, 0)
		j.Iterations = 300
		res, err := RunPrototype(PrototypeConfig{Topology: topo, Policy: schedcore.TopoAware}, []*job.Job{j})
		if err != nil {
			t.Fatal(err)
		}
		pts := res.Bandwidth["bw"]
		if len(pts) == 0 {
			t.Fatalf("batch %d: no bandwidth points", b)
		}
		var sum float64
		for _, p := range pts {
			if p.GBs < 0 {
				t.Fatalf("negative bandwidth %v", p.GBs)
			}
			sum += p.GBs
		}
		means[b] = sum / float64(len(pts))
	}
	if means[1] <= means[128] {
		t.Fatalf("batch 1 mean %.2f GB/s <= batch 128 mean %.2f GB/s", means[1], means[128])
	}
	if means[1]/means[128] < 5 {
		t.Fatalf("bandwidth gap %.1fx too small (paper shows ≈7x)", means[1]/means[128])
	}
}

func TestBandwidthWindowsCoverRun(t *testing.T) {
	topo := topology.Power8Minsky()
	j := job.New("w", perfmodel.AlexNet, 1, 2, 0.5, 0)
	j.Iterations = 1000 // ≈78s
	res, err := RunPrototype(PrototypeConfig{Topology: topo, Policy: schedcore.TopoAware}, []*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Bandwidth["w"]
	dur := res.Jobs[0].Run
	if float64(len(pts)) < dur*0.8 {
		t.Fatalf("only %d windows for a %.0fs run", len(pts), dur)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatal("window times not increasing")
		}
	}
}

func TestInterferenceAtIterationGranularity(t *testing.T) {
	topo := topology.Power8Minsky()
	a := job.New("a", perfmodel.AlexNet, 1, 2, 0.0, 0)
	a.Iterations = 500
	b := job.New("b", perfmodel.AlexNet, 1, 2, 0.0, 0)
	b.Iterations = 500
	res, err := RunPrototype(PrototypeConfig{Topology: topo, Policy: schedcore.TopoAware}, []*job.Job{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.SlowdownQoS < 0.2 || jr.SlowdownQoS > 0.35 {
			t.Fatalf("job %s slowdown %.3f, want ≈0.30", jr.Job.ID, jr.SlowdownQoS)
		}
	}
}

func TestJitterReproducible(t *testing.T) {
	topo := topology.Power8Minsky()
	mk := func() []*job.Job {
		j := job.New("j", perfmodel.AlexNet, 4, 2, 0.5, 0)
		j.Iterations = 200
		return []*job.Job{j}
	}
	r1, err := RunPrototype(PrototypeConfig{Topology: topo, Policy: schedcore.TopoAware, JitterStddev: 0.02, Seed: 11}, mk())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunPrototype(PrototypeConfig{Topology: topo, Policy: schedcore.TopoAware, JitterStddev: 0.02, Seed: 11}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan {
		t.Fatal("same seed produced different runs")
	}
	r3, err := RunPrototype(PrototypeConfig{Topology: topo, Policy: schedcore.TopoAware, JitterStddev: 0.02, Seed: 12}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan == r3.Makespan {
		t.Fatal("different seeds produced identical jittered runs")
	}
}

func TestPostponementCountsPropagate(t *testing.T) {
	topo := topology.Power8Minsky()
	// Six jobs on one machine force queueing; postponement counts appear
	// in the results for the delayed jobs.
	res, err := RunPrototype(PrototypeConfig{Topology: topo, Policy: schedcore.TopoAwareP}, workload.Table1())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, jr := range res.Jobs {
		total += jr.Postponements
	}
	if total == 0 {
		t.Fatal("no postponements recorded in a contended scenario")
	}
}

// protoEngineDigest is the SHA-256 TestProtoEngineDigest expects, first
// recorded at commit 26e6334 — before the engine's interference term moved
// onto cluster.State.Slowdown — as 79ec7358…0508. It moved once, when
// Result lost its Samples field: the new value is the hash of that
// commit's encoder output with the one "Samples":null, key of each result
// cut out, so no duration moved. Never re-record it to make a failure go
// away: a mismatch means some iteration's duration changed in at least
// one bit.
const protoEngineDigest = "8d56040c022214fb7defc2f04230bfe261da2ff82b23bdd4930756e2ecd9a0cb"

// TestProtoEngineDigest pins the prototype engine's full output — per-job
// results, timeline, scheduler counters, bandwidth windows — on Table 1
// and on a jittered 40-job generated stream over two machines, under every
// policy. No sweep golden runs this engine, so this is its bit-identity
// referee.
func TestProtoEngineDigest(t *testing.T) {
	two := topology.Cluster(2, topology.KindMinsky)
	stream, err := workload.Generate(workload.GenConfig{Jobs: 40, Seed: 42}, two)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, pol := range schedcore.AllPolicies() {
		for _, c := range []struct {
			cfg  PrototypeConfig
			jobs []*job.Job
		}{
			{PrototypeConfig{Topology: topology.Power8Minsky(), Policy: pol}, workload.Table1()},
			{PrototypeConfig{Topology: two, Policy: pol, JitterStddev: 0.05, Seed: 42}, stream},
		} {
			res, err := RunPrototype(c.cfg, c.jobs)
			if err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
			// Wall-clock measurements, the only nondeterministic fields.
			res.SchedStats.DecisionTime, res.SchedStats.MaxDecision = 0, 0
			if err := json.NewEncoder(h).Encode(res); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != protoEngineDigest {
		t.Fatalf("prototype engine output digest %s, recorded %s", got, protoEngineDigest)
	}
}
