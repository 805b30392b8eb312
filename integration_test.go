package gputopo

import (
	"math"
	"testing"
	"testing/quick"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/stats"
	"gputopo/internal/sweep"
	"gputopo/internal/topology"
	"gputopo/internal/workload"
)

// TestSimulatorTracksPrototype exercises the §5.3 validation: run a
// generated workload through the iteration-level prototype engine and the
// simulator, and check the simulator reproduces the prototype's makespan.
func TestSimulatorTracksPrototype(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	jobs, err := workload.Generate(workload.GenConfig{Jobs: 25, Seed: 17}, topo)
	if err != nil {
		t.Fatal(err)
	}
	protoRes, err := RunPrototype(PrototypeConfig{Topology: topo, Policy: TopoAwareP}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := Simulate(SimConfig{Topology: topo, Policy: TopoAwareP}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(simRes.Jobs) != len(protoRes.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(simRes.Jobs), len(protoRes.Jobs))
	}
	rel := math.Abs(simRes.Makespan-protoRes.Makespan) / protoRes.Makespan
	if rel > 0.05 {
		t.Fatalf("simulated makespan diverges %.1f%%", rel*100)
	}
}

// TestEndToEndManifestWorkflow runs a declarative experiment — the
// artifact appendix's system config, one config per algorithm and the JSON
// job manifests — as a list grid spec.
func TestEndToEndManifestWorkflow(t *testing.T) {
	g, err := sweep.ParseGridSpec([]byte(`{
		"name": "manifest",
		"engine": "sim",
		"source": "list",
		"policies": ["BF", "TOPO-AWARE-P"],
		"topologies": [{"builder": "minsky"}],
		"job_list": [
			{"id": "J3", "model": "AlexNet", "batch_size": 4, "gpus": 2, "min_utility": 0.5, "arrival_s": 0, "iterations": 400},
			{"id": "J4", "model": "AlexNet", "batch_size": 1, "gpus": 2, "min_utility": 0.5, "arrival_s": 1, "iterations": 400}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweep.Run(g, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("runs = %d", len(rep.Points))
	}
	// Both jobs fit the machine simultaneously, one per socket; the
	// topology-aware policy must not be slower than Best-Fit.
	if bf, topo := rep.Points[0].Makespan, rep.Points[1].Makespan; topo > bf+1e-9 {
		t.Fatalf("TOPO-AWARE-P (%.1f) slower than BF (%.1f)", topo, bf)
	}
}

// TestDGX1EightGPUScheduling schedules a mixed workload on a DGX-1 and
// checks P2P-rich placements.
func TestDGX1EightGPUScheduling(t *testing.T) {
	topo := NewDGX1()
	jobs := []*Job{
		NewJob("quad", AlexNet, 1, 4, 0.5, 0),
		NewJob("pair", CaffeRef, 4, 2, 0.5, 0.5),
		NewJob("solo", GoogLeNet, 128, 1, 0.3, 1),
	}
	for _, j := range jobs {
		j.Iterations = 200
	}
	res, err := Simulate(SimConfig{Topology: topo, Policy: TopoAwareP}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.Wait > 0 {
			t.Fatalf("job %s queued on an 8-GPU machine with 7 GPUs requested", jr.Job.ID)
		}
		if jr.Job.GPUs >= 2 && !jr.P2P {
			t.Fatalf("job %s placed without P2P on a DGX-1: %v", jr.Job.ID, jr.GPUs)
		}
	}
}

// TestMultiNodeAntiCollocation verifies the §4.4 anti-collocation policy
// end to end: tasks land on different machines.
func TestMultiNodeAntiCollocation(t *testing.T) {
	topo := NewMinskyCluster(3)
	j := NewJob("spread", AlexNet, 128, 2, 0.0, 0)
	j.SingleNode = false
	j.AntiCollocate = true
	j.Iterations = 50
	res, err := Simulate(SimConfig{Topology: topo, Policy: TopoAware}, []*Job{j})
	if err != nil {
		t.Fatal(err)
	}
	gpus := res.Jobs[0].GPUs
	if topo.SameMachine(gpus[0], gpus[1]) {
		t.Fatalf("anti-collocated tasks share a machine: %v", gpus)
	}
}

// TestDRBPlacementInvariants property-tests the DRB mapper over random
// cluster states: placements always use free candidate GPUs, never
// duplicate, and score utilities within [0, 1].
func TestDRBPlacementInvariants(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	profiles := profile.Generate(topo, 4)
	mapper, err := core.NewMapper(profiles, core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, gpuReq, batchPick uint8) bool {
		rng := stats.NewRNG(seed)
		st := cluster.NewState(topo)
		// Randomly occupy some GPUs with dummy jobs.
		occupied := 0
		for pos := 0; pos < topo.NumGPUs(); pos++ {
			if rng.Float64() < 0.4 {
				tr := perfmodel.Traits{Model: perfmodel.NN(rng.Intn(3)), Class: 1, GPUs: 1}
				if st.Allocate(jobNameForTest(pos), []int{pos}, 0.5, tr) != nil {
					return false
				}
				occupied++
			}
		}
		req := 1 + int(gpuReq%4)
		batch := []int{1, 4, 32, 128}[batchPick%4]
		j := job.New("probe", perfmodel.AlexNet, batch, req, 0.5, 0)
		j.SingleNode = false
		free := st.FreeGPUs()
		if len(free) < req {
			return true // nothing to check
		}
		p, err := mapper.Place(j, st, free)
		if err != nil {
			return false
		}
		if len(p.GPUs) != req {
			return false
		}
		seen := map[int]bool{}
		freeSet := map[int]bool{}
		for _, g := range free {
			freeSet[g] = true
		}
		for _, g := range p.GPUs {
			if seen[g] || !freeSet[g] {
				return false
			}
			seen[g] = true
		}
		return p.Utility >= 0 && p.Utility <= 1+1e-9 &&
			p.Interference >= 1 && p.Fragmentation >= 0 && p.Fragmentation <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func jobNameForTest(pos int) string {
	return "occ" + string(rune('a'+pos))
}

// TestSchedulerConservationInvariant property-tests the scheduler: across
// random submission/finish sequences, every GPU is owned by at most one
// job and free counts stay consistent.
func TestSchedulerConservationInvariant(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	profiles := profile.Generate(topo, 4)
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		mapper, err := core.NewMapper(profiles, core.DefaultWeights())
		if err != nil {
			return false
		}
		st := cluster.NewState(topo)
		s := schedcore.New(schedcore.TopoAwareP, st, mapper)
		placed := map[string]bool{}
		id := 0
		for step := 0; step < 40; step++ {
			if rng.Float64() < 0.6 {
				id++
				j := job.New(jobID(id), perfmodel.NN(rng.Intn(3)), 1+rng.Intn(64), 1+rng.Intn(2), 0.3, float64(step))
				if s.Submit(j) != nil {
					return false
				}
			} else if len(placed) > 0 {
				for name := range placed {
					if s.Release(name) != nil {
						return false
					}
					delete(placed, name)
					break
				}
			}
			for _, d := range s.Schedule() {
				if !d.Postponed {
					placed[d.Job.ID] = true
				}
			}
			// Conservation: owned + free == total.
			owned := 0
			for pos := 0; pos < topo.NumGPUs(); pos++ {
				if st.Owner(pos) != "" {
					owned++
				}
			}
			if owned+st.FreeGPUCount() != topo.NumGPUs() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func jobID(i int) string {
	return "j" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

// TestSimulatorMatchesHandComputedScenario cross-checks the simulator on a
// scenario small enough to verify with arithmetic: two sequential solo
// jobs on one machine.
func TestSimulatorMatchesHandComputedScenario(t *testing.T) {
	topo := topology.Power8Minsky()
	a := job.New("a", perfmodel.AlexNet, 128, 4, 0.0, 0)
	a.Iterations = 10
	b := job.New("b", perfmodel.AlexNet, 128, 4, 0.0, 1)
	b.Iterations = 10
	res, err := simulator.Run(simulator.Config{Topology: topo, Policy: schedcore.FCFS}, []*job.Job{a, b})
	if err != nil {
		t.Fatal(err)
	}
	iterTime := perfmodel.IterationTime(perfmodel.AlexNet, 128, topo, []int{0, 1, 2, 3}, 1)
	wantAFinish := 10 * iterTime
	wantBFinish := wantAFinish + 10*iterTime // b starts when a finishes
	var ja, jb simulator.JobResult
	for _, jr := range res.Jobs {
		if jr.Job.ID == "a" {
			ja = jr
		} else {
			jb = jr
		}
	}
	if math.Abs(ja.Finish-wantAFinish) > 1e-6 {
		t.Fatalf("a finish %.4f, want %.4f", ja.Finish, wantAFinish)
	}
	if math.Abs(jb.Finish-wantBFinish) > 1e-6 {
		t.Fatalf("b finish %.4f, want %.4f", jb.Finish, wantBFinish)
	}
	if math.Abs(jb.Wait-(wantAFinish-1)) > 1e-6 {
		t.Fatalf("b wait %.4f, want %.4f", jb.Wait, wantAFinish-1)
	}
}
