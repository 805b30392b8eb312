// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`), plus the ablations of
// docs/reproducing-the-paper.md's map and micro-benchmarks of the core
// algorithms. Each figure benchmark regenerates the experiment end to end;
// the reported ns/op is the cost of reproducing that figure on this
// machine, and the experiment's own metrics are reported via
// b.ReportMetric where the paper publishes a headline number.
package gputopo

import (
	"fmt"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/experiments"
	"gputopo/internal/fm"
	"gputopo/internal/graph"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/schedcore/domains"
	"gputopo/internal/simulator"
	"gputopo/internal/sweep"
	"gputopo/internal/topology"
	"gputopo/internal/workload"
)

// BenchmarkFig3Breakdown regenerates Figure 3 (computation/communication
// breakdown per model and batch size).
func BenchmarkFig3Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3Breakdown()
		if len(rows) != 24 {
			b.Fatal("unexpected row count")
		}
	}
}

// BenchmarkFig4PackSpread regenerates Figure 4 and reports the headline
// AlexNet batch-1 pack-vs-spread speedup (paper: ≈1.30x).
func BenchmarkFig4PackSpread(b *testing.B) {
	var headline float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4PackSpread()
		for _, r := range rows {
			if r.Model == perfmodel.AlexNet && r.Batch == 1 {
				headline = r.Speedup
			}
		}
	}
	b.ReportMetric(headline, "alexnet-b1-speedup")
}

// BenchmarkFig5Bandwidth regenerates Figure 5 (NVLink bandwidth over time)
// and reports the batch-1 / batch-128 mean-bandwidth ratio (paper: ≈7x).
func BenchmarkFig5Bandwidth(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig5Bandwidth(42)
		if err != nil {
			b.Fatal(err)
		}
		ratio = series[0].Mean / series[3].Mean
	}
	b.ReportMetric(ratio, "b1/b128-bandwidth-ratio")
}

// BenchmarkFig6Interference regenerates Figure 6 (co-location slowdown
// matrix) and reports the tiny+tiny slowdown (paper: ≈30%).
func BenchmarkFig6Interference(b *testing.B) {
	var tinyTiny float64
	for i := 0; i < b.N; i++ {
		cells := experiments.Fig6Interference()
		tinyTiny = cells[0].Slowdown
	}
	b.ReportMetric(tinyTiny*100, "tiny+tiny-slowdown-%")
}

// BenchmarkPCIeComparison regenerates the §3.2 NVLink-vs-PCIe table.
func BenchmarkPCIeComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.PCIeComparison(); len(rows) != 8 {
			b.Fatal("unexpected rows")
		}
	}
}

// BenchmarkModelParallelStudy regenerates the §2 extension study and
// reports the model-parallel pack-vs-spread speedup at batch 128, where
// data parallelism has stopped caring about placement.
func BenchmarkModelParallelStudy(b *testing.B) {
	var mp128 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.ModelParallelStudy()
		mp128 = rows[len(rows)-1].MPSpeedup
	}
	b.ReportMetric(mp128, "mp-b128-speedup")
}

// BenchmarkFig8Prototype regenerates the Figure 8 prototype experiment
// (Table 1 workload under all four policies at iteration granularity) and
// reports TOPO-AWARE-P's cumulative-time speedup over Best-Fit (paper:
// ≈1.30x).
func BenchmarkFig8Prototype(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig8Prototype(42)
		if err != nil {
			b.Fatal(err)
		}
		speedup = rep.ByPolicy(schedcore.BestFit).Makespan / rep.ByPolicy(schedcore.TopoAwareP).Makespan
	}
	b.ReportMetric(speedup, "topoP-vs-BF-speedup")
}

// BenchmarkFig9Validation regenerates the §5.4 prototype-vs-simulation
// validation and reports the worst relative disagreement in percent.
func BenchmarkFig9Validation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Validate(42)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			d := r.RelativeError
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst*100, "max-rel-diff-%")
}

// BenchmarkFig10Scenario1 regenerates Figure 10 (100 jobs, 5 machines) and
// reports TOPO-AWARE-P's SLO violations (paper: none).
func BenchmarkFig10Scenario1(b *testing.B) {
	var viol float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Scenario1(42)
		if err != nil {
			b.Fatal(err)
		}
		viol = float64(rep.ByPolicy(schedcore.TopoAwareP).SLOViolations)
	}
	b.ReportMetric(viol, "topoP-SLO-violations")
}

// BenchmarkFig11Scenario2 regenerates Figure 11 (10k jobs, 1k machines)
// and reports TOPO-AWARE-P's SLO violations (paper: none).
func BenchmarkFig11Scenario2(b *testing.B) {
	var viol float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Scenario2(42)
		if err != nil {
			b.Fatal(err)
		}
		viol = float64(rep.ByPolicy(schedcore.TopoAwareP).SLOViolations)
	}
	b.ReportMetric(viol, "topoP-SLO-violations")
}

// BenchmarkOverheadDecisionTopoAware measures the per-decision cost of the
// topology-aware placement at scenario-2-like machine counts (§5.5.3
// reports ≈3s on their hardware vs ≈0.45s greedy; the reproduced quantity
// is the topo/greedy ratio, visible against the FCFS benchmark below).
func BenchmarkOverheadDecisionTopoAware(b *testing.B) {
	benchDecision(b, schedcore.TopoAware)
}

// BenchmarkOverheadDecisionFCFS is the greedy counterpart of the decision
// overhead comparison.
func BenchmarkOverheadDecisionFCFS(b *testing.B) {
	benchDecision(b, schedcore.FCFS)
}

// BenchmarkOverheadDecisionBestFit measures Best-Fit's decision cost.
func BenchmarkOverheadDecisionBestFit(b *testing.B) {
	benchDecision(b, schedcore.BestFit)
}

// benchDecision measures one placement decision on a 1000-machine cluster
// with a realistic allocation level (≈50% of GPUs busy).
func benchDecision(b *testing.B, policy schedcore.Policy) {
	topo := topology.Cluster(1000, topology.KindMinsky)
	st := cluster.NewState(topo)
	occupant := perfmodel.Traits{Model: perfmodel.AlexNet, Class: 1, GPUs: 2}
	id := 0
	for m := 0; m < 1000; m += 2 {
		gpus := topo.GPUsOfMachine(m)
		if err := st.Allocate(jobName(id), []int{gpus[0], gpus[1]}, 1, occupant); err != nil {
			b.Fatal(err)
		}
		id++
	}
	mapper, err := core.NewMapper(profile.Generate(topo, 4), core.DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := schedcore.New(policy, st, mapper)
		j := job.New("bench", perfmodel.AlexNet, 4, 2, 0.5, 0)
		if err := s.Submit(j); err != nil {
			b.Fatal(err)
		}
		ds := s.Schedule()
		if len(ds) != 1 || ds[0].Postponed {
			b.Fatal("placement failed")
		}
		b.StopTimer()
		if err := st.Release("bench"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func jobName(i int) string {
	return "occ" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

// halfBusyCluster builds the benchDecision substrate — a minsky cluster
// at ≈50% occupancy via a 2-GPU occupant on every even machine — at an
// arbitrary machine count.
func halfBusyCluster(b *testing.B, machines int) (*topology.Topology, *cluster.State) {
	b.Helper()
	topo := topology.Cluster(machines, topology.KindMinsky)
	st := cluster.NewState(topo)
	occupant := perfmodel.Traits{Model: perfmodel.AlexNet, Class: 1, GPUs: 2}
	id := 0
	for m := 0; m < machines; m += 2 {
		gpus := topo.GPUsOfMachine(m)
		if err := st.Allocate(jobName(id), []int{gpus[0], gpus[1]}, 1, occupant); err != nil {
			b.Fatal(err)
		}
		id++
	}
	return topo, st
}

// BenchmarkRouterRoute measures one sharded-serve routing decision: the
// admissibility walk plus three counter reads per domain, at a 16-domain
// fan-out with mixed job shapes.
func BenchmarkRouterRoute(b *testing.B) {
	const nd = 16
	caps := make([]domains.Capacity, nd)
	for d := range caps {
		caps[d] = domains.CapacityOf(topology.Cluster(8, topology.KindMinsky))
	}
	free := func(d int) (int, int, int) {
		// Synthetic but domain-varying occupancy so Route exercises both
		// the seats-now and spill arms.
		return (d * 5) % 33, d % 5, d % 9
	}
	r := domains.NewRouter(caps, free)
	js := []*job.Job{
		job.New("r1", perfmodel.AlexNet, 4, 1, 0.5, 0),
		job.New("r2", perfmodel.GoogLeNet, 4, 4, 0.5, 0),
		job.New("r4", perfmodel.AlexNet, 4, 2, 0.5, 0),
	}
	js[1].SingleNode = true
	js[2].AntiCollocate = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Route(js[i%len(js)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleSteadyState measures one steady-state scheduling
// round through the schedcore engine at scenario-2 scale (1000 minsky
// machines, ≈50% busy). The churn loop places and releases the same job
// shape, so every round sweeps the same two shape classes: one mapper run
// each, whatever the machine count.
func BenchmarkScheduleSteadyState(b *testing.B) {
	topo, st := halfBusyCluster(b, 1000)
	mapper, err := core.NewMapper(profile.Generate(topo, 4), core.DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	c := schedcore.New(schedcore.TopoAware, st, mapper)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := job.New("bench", perfmodel.AlexNet, 4, 2, 0.5, 0)
		if err := c.Submit(j); err != nil {
			b.Fatal(err)
		}
		ds := c.Schedule()
		if len(ds) != 1 || ds[0].Postponed {
			b.Fatal("placement failed")
		}
		b.StopTimer()
		if err := c.Release("bench"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkCandidateSweep measures one steady-state TOPO-AWARE decision
// at about 80% occupancy on a small and a large fleet. The candidate sweep
// evaluates one machine per distinct shape class, so time per decision
// should follow the class count — which an occupancy level bounds — and
// not the sixteen-fold difference in hosts. Classes are scored into
// reused scratch and interned fingerprints are recomputed without a copy,
// so allocations per decision are the same on both fleets: 5 (the job,
// the placement and the Allocation, the last two with their GPUs).
func BenchmarkCandidateSweep(b *testing.B) {
	for _, machines := range []int{64, 1024} {
		b.Run(fmt.Sprintf("minsky:%d", machines), func(b *testing.B) {
			topo := topology.Cluster(machines, topology.KindMinsky)
			mapper, err := core.NewMapper(profile.Generate(topo, 4), core.DefaultWeights())
			if err != nil {
				b.Fatal(err)
			}
			c := schedcore.New(schedcore.TopoAware, cluster.NewState(topo), mapper)
			decide := func(id string, i int) {
				// The policy spreads, so whole machines run out long before
				// GPUs do: ask for no more than one machine still offers.
				gpus := min([]int{1, 2, 4, 2, 1}[i%5], c.State().MaxFreeGPUs())
				j := job.New(id, perfmodel.NN(i%3), 1<<(i%6), gpus, 0, 0)
				if err := c.Submit(j); err != nil {
					b.Fatal(err)
				}
				if ds := c.Schedule(); len(ds) != 1 || ds[0].Postponed {
					b.Fatal("placement failed")
				}
			}
			for i := 0; c.State().FreeGPUCount() > topo.NumGPUs()/5; i++ {
				decide(fmt.Sprintf("fill-%d", i), i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decide("bench", i)
				b.StopTimer()
				if err := c.Release("bench"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAblationLevelWeights re-runs the Table 1 scenario across the
// `levelweights` grid's socket weights (§4.1.2: only the ordering matters).
func BenchmarkAblationLevelWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LevelWeightAblation(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlphaSweep sweeps the utility weight αcc on scenario 1
// (the `alpha` grid at one replica).
func BenchmarkAblationAlphaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AlphaSweep(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThresholdSweep sweeps the TOPO-AWARE-P postponement
// threshold on scenario 1 (the `threshold` grid at one replica).
func BenchmarkAblationThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ThresholdSweep(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFMvsExhaustive compares Fiduccia–Mattheyses against the
// exhaustive-optimal bipartition on DGX-1-sized affinity graphs.
func BenchmarkAblationFMvsExhaustive(b *testing.B) {
	topo := topology.DGX1()
	g := graph.New()
	n := topo.NumGPUs()
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 1/topo.Distance(i, j))
		}
	}
	b.Run("FM", func(b *testing.B) {
		var w fm.Workspace
		for i := 0; i < b.N; i++ {
			w.Bipartition(g)
		}
	})
	b.Run("Exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fm.ExhaustiveBipartition(g, 1)
		}
	})
}

// BenchmarkDRBPlacement measures a single DRB mapping ψ(A, P) of a 4-GPU
// job on a DGX-1 — the paper's core operation with complexity
// Θ(|E_A|·log₂|V_P|).
func BenchmarkDRBPlacement(b *testing.B) {
	topo := topology.DGX1()
	st := cluster.NewState(topo)
	mapper, err := core.NewMapper(profile.Generate(topo, 8), core.DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	j := job.New("bench", perfmodel.AlexNet, 1, 4, 0.5, 0)
	free := st.FreeGPUs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.Place(j, st, free); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperPlace measures one DRB mapping with its utility scoring
// on a single machine at three occupancies. The interference term walks
// the machine's resident table once per side score, so the cost should
// grow gently with the residents and allocations per placement not at all.
func BenchmarkMapperPlace(b *testing.B) {
	for _, tc := range []struct {
		name      string
		topo      *topology.Topology
		residents int // one-GPU jobs on GPUs 0..residents-1
		gpus      int // size of the job placed on what is left
	}{
		{"minsky-empty", topology.Power8Minsky(), 0, 2},
		{"minsky-3-residents", topology.Power8Minsky(), 3, 1},
		{"dgx1-5-residents", topology.DGX1(), 5, 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			st := cluster.NewState(tc.topo)
			for i := 0; i < tc.residents; i++ {
				tr := perfmodel.Traits{Model: perfmodel.NN(i % 3), Class: 1, GPUs: 1}
				if err := st.Allocate(jobName(i), []int{i}, 1, tr); err != nil {
					b.Fatal(err)
				}
			}
			mapper, err := core.NewMapper(profile.Generate(tc.topo, 4), core.DefaultWeights())
			if err != nil {
				b.Fatal(err)
			}
			j := job.New("bench", perfmodel.AlexNet, 1, tc.gpus, 0.5, 0)
			free := st.FreeGPUs()
			// One untimed call fills the mapper's pools: CI reads this at
			// -benchtime=1x, where whether a GC had emptied them since the
			// last sub-benchmark decided between 8 and 51 allocs/op.
			if _, err := mapper.Place(j, st, free); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mapper.Place(j, st, free); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubmitDeepQueue measures one Submit of a priority-1 job into a
// queue of 15000 waiting jobs of priorities 0–2 — sim-contended's depth.
// fifo and priority submit it out of order, at arrival depth/2: a search
// for the job's place and one shift of the entries behind it.
// priority-newest submits the newest arrival, the simulator's and a live
// server's common case, which under priority goes ahead of every queued
// priority-0 job.
func BenchmarkSubmitDeepQueue(b *testing.B) {
	const depth = 15000
	for _, tc := range []struct {
		name, disc string
		arrival    float64
	}{
		{"fifo", "fifo", depth / 2},
		{"priority", "priority", depth / 2},
		{"priority-newest", "priority", depth},
	} {
		b.Run(tc.name, func(b *testing.B) {
			disc, err := schedcore.ParseDiscipline(tc.disc)
			if err != nil {
				b.Fatal(err)
			}
			topo := topology.Power8Minsky()
			mapper, err := core.NewMapper(profile.Generate(topo, 4), core.DefaultWeights())
			if err != nil {
				b.Fatal(err)
			}
			c := schedcore.New(schedcore.FCFS, cluster.NewState(topo), mapper, schedcore.WithQueueDiscipline(disc))
			for i := 0; i < depth; i++ {
				j := job.New(fmt.Sprintf("q%d", i), perfmodel.AlexNet, 4, 1, 0, float64(i))
				j.Priority = i % 3
				if err := c.Submit(j); err != nil {
					b.Fatal(err)
				}
			}
			late := job.New("late", perfmodel.AlexNet, 4, 1, 0, tc.arrival)
			late.Priority = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Submit(late); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if !c.Withdraw("late") {
					b.Fatal("late job not queued")
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkScheduleWalkDeepQueue measures one in-order round over a queue
// of 15000 waiting jobs that places exactly one of them: release the
// running job, submit a replacement at the tail, schedule. The walk steps
// the queue's head past the placed job; sliding the 15000 survivors down
// instead is what this pins against.
func BenchmarkScheduleWalkDeepQueue(b *testing.B) {
	const depth = 15000
	topo := topology.Power8Minsky()
	mapper, err := core.NewMapper(profile.Generate(topo, 4), core.DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	c := schedcore.New(schedcore.FCFS, cluster.NewState(topo), mapper)
	submit := func(i int) {
		if err := c.Submit(job.New(fmt.Sprintf("q%d", i), perfmodel.AlexNet, 4, 4, 0, float64(i))); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i <= depth; i++ {
		submit(i)
	}
	running := c.Schedule()[0].Job.ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Release(running); err != nil {
			b.Fatal(err)
		}
		submit(depth + 1 + i)
		ds := c.Schedule()
		if len(ds) != 2 || ds[0].Postponed {
			b.Fatal("the head of the queue did not place")
		}
		running = ds[0].Job.ID
	}
}

// BenchmarkSelectVictims measures one scheduling round whose only queued
// job is a blocked priority-1 four-GPU job on sim-contended's mixed fleet,
// full with ≈ 165 running jobs — the preemption path's victim search and
// nothing else. no-lower-tier: everything running is priority 1 too, the
// common case on a contended cluster, answered off the victim index.
// one-tier-below: everything running is priority 0, so all 60 machines
// propose a victim set; the job's minimum utility is out of reach, so every
// set is evaluated and rejected and the round repeats unchanged.
func BenchmarkSelectVictims(b *testing.B) {
	specs, err := topology.ParseMix("minsky:24+dgx1:12+pcie:24")
	if err != nil {
		b.Fatal(err)
	}
	topo, err := topology.HeterogeneousCluster(specs)
	if err != nil {
		b.Fatal(err)
	}
	mapper, err := core.NewMapper(profile.Generate(topo, 4), core.DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	disc, err := schedcore.ParseDiscipline("priority")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		runningPrio int
	}{{"no-lower-tier", 1}, {"one-tier-below", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			c := schedcore.New(schedcore.TopoAwareP, cluster.NewState(topo), mapper, schedcore.WithQueueDiscipline(disc))
			c.SetPreemption(true)
			n := 0
			for m := 0; m < topo.NumMachines(); m++ {
				for gpus := topo.GPUsOfMachine(m); len(gpus) > 0; n++ {
					size := min([]int{2, 2, 1, 2}[n%4], len(gpus))
					j := job.New(fmt.Sprintf("r%d", n), perfmodel.AlexNet, 1, size, 0, float64(n))
					j.Priority = tc.runningPrio
					if err := c.Restore(j, gpus[:size], 0); err != nil {
						b.Fatal(err)
					}
					gpus = gpus[size:]
				}
			}
			hi := job.New("hi", perfmodel.AlexNet, 1, 4, 1, float64(n))
			hi.Priority = 1
			if err := c.Submit(hi); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ds := c.Schedule(); len(ds) != 1 || !ds[0].Postponed {
					b.Fatal("the blocked job did not stay blocked")
				}
			}
			b.StopTimer()
			if st := c.Stats(); st.Preemptions != 0 || len(c.Running()) != n {
				b.Fatalf("%d preemptions, %d of %d jobs still running", st.Preemptions, len(c.Running()), n)
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures simulated jobs per second of the
// trace-driven engine at scenario-1 scale.
func BenchmarkSimulatorThroughput(b *testing.B) {
	topo := topology.Cluster(5, topology.KindMinsky)
	jobs, err := workload.Generate(workload.GenConfig{Jobs: 100, Seed: 42}, topo)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulator.Run(simulator.Config{Topology: topo, Policy: schedcore.TopoAwareP}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrototypeEngine measures the iteration-granularity engine on
// the Table 1 workload (the Figure 8 inner loop).
func BenchmarkPrototypeEngine(b *testing.B) {
	topo := topology.Power8Minsky()
	for i := 0; i < b.N; i++ {
		if _, err := RunPrototype(PrototypeConfig{Topology: topo, Policy: schedcore.TopoAwareP}, workload.Table1()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyBuild measures cluster topology construction including
// all distance/bandwidth matrices, on a ladder: time and bytes per op must
// grow with the machine count, not with its square (minsky:1000 against
// minsky:100), and the mix is the serve-preempt fleet.
func BenchmarkTopologyBuild(b *testing.B) {
	for _, mix := range []string{"minsky:100", "minsky:1000", "minsky:24+dgx1:12+pcie:24"} {
		specs, err := topology.ParseMix(mix)
		if err != nil {
			b.Fatal(err)
		}
		name := mix
		if len(specs) > 1 {
			name = "mix[" + mix + "]"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := topology.HeterogeneousCluster(specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfileGeneration measures the §4.2 profile store generation as
// every substrate pays it: profile.Default on a fresh minsky:1000, built
// with the timer stopped, so nothing an earlier iteration memoized on the
// topology is reused.
func BenchmarkProfileGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topo := topology.Cluster(1000, topology.KindMinsky)
		b.StartTimer()
		if s := profile.Default(topo); s.Len() != 96 {
			b.Fatal("bad store")
		}
	}
}

// BenchmarkSubstrateSetup times the simulator's set-up at sim-scenario2's
// sizes, the phase cmd/topoperf reports as setup_s: minsky:1000 and its
// four hash:4 domain topologies, each built and given its profile store,
// then one 5000-job generated stream at 0.8 jobs/min/machine on the whole
// cluster. Every iteration builds from scratch, as each of topoperf's
// set-up repeats does. The sizes are copied from cmd/topoperf: sim.go's
// simGridsFor (sim-scenario2's grid: scenario2Jobs, scenario2Rate) and
// servetrace.go's generateProfiles (the profile width), which sim.go's
// simSubstrates calls; change them together.
func BenchmarkSubstrateSetup(b *testing.B) {
	whole := sweep.TopologySpec{Builder: "minsky", Machines: 1000}
	sharded := whole
	sharded.Domains = "hash:4"
	_, subs, _, err := sharded.PartitionDomains(0)
	if err != nil {
		b.Fatal(err)
	}
	specs := append([]sweep.TopologySpec{whole}, subs...)
	b.ReportAllocs()
	for b.Loop() {
		for i, spec := range specs {
			topo, err := spec.Build(spec.EffectiveMachines(1), false)
			if err != nil {
				b.Fatal(err)
			}
			profile.Generate(topo, min(topo.NumGPUs(), 8))
			if i > 0 {
				continue
			}
			gen := workload.GenConfig{Jobs: 5000, Seed: 42, ArrivalRate: 0.8 * float64(topo.NumMachines())}
			if _, err := workload.Generate(gen, topo); err != nil {
				b.Fatal(err)
			}
		}
	}
}
