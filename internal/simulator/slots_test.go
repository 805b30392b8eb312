package simulator

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/schedcore"
	"gputopo/internal/topology"
)

// runEngine runs the jobs to the end on an engine the test can inspect.
func runEngine(t *testing.T, cfg Config, jobs []*job.Job) *engine {
	t.Helper()
	e, err := newEngine(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.loop(len(jobs)); err != nil {
		t.Fatal(err)
	}
	return e
}

// resultOf returns the job's result and its timeline intervals.
func (e *engine) resultOf(t *testing.T, id string) (JobResult, []Interval) {
	t.Helper()
	var ivs []Interval
	for _, iv := range e.res.Timeline {
		if iv.JobID == id {
			ivs = append(ivs, iv)
		}
	}
	for _, jr := range e.res.Jobs {
		if jr.Job.ID == id {
			return jr, ivs
		}
	}
	t.Fatalf("no result for %s", id)
	return JobResult{}, nil
}

// wholeMachineJob is a 4-GPU AlexNet job: alone on a Minsky machine it
// runs at one fixed rate.
func wholeMachineJob(id string, prio, iterations int, arrival float64) *job.Job {
	j := job.New(id, perfmodel.AlexNet, 1, 4, 0, arrival)
	j.Priority, j.Iterations = prio, iterations
	return j
}

// iterTime is the seconds a whole-machine job spends per iteration alone
// on a machine of topo.
func iterTime(t *testing.T, topo *topology.Topology) float64 {
	t.Helper()
	res, err := Run(Config{Topology: topo, Policy: schedcore.TopoAware}, []*job.Job{wholeMachineJob("solo", 0, 1000, 0)})
	if err != nil {
		t.Fatal(err)
	}
	return res.Jobs[0].Run / 1000
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }

// TestPreemptorTakesVictimSlot: on two Minsky machines L runs in slot 0
// and M in slot 1; H evicts M (the lower tier) and lands in M's slot.
// When L finishes, M is re-placed in L's slot, and its result still
// counts the eviction, starts at its first placement and owes only the
// iterations it had not run.
func TestPreemptorTakesVictimSlot(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	u := 100 * iterTime(t, topo) // one unit: 100 iterations
	l := wholeMachineJob("L", 1, 1000, 0)
	m := wholeMachineJob("M", 0, 1000, 1*u)
	h := wholeMachineJob("H", 2, 2000, 3*u)
	e := runEngine(t, Config{Topology: topo, Policy: schedcore.TopoAware, EnablePreemption: true}, []*job.Job{l, m, h})

	if e.running[1].job != h || e.running[0].job != m {
		t.Fatalf("slot 0 last held %s, slot 1 %s; want M re-placed in L's slot and H in M's", e.running[0].job.ID, e.running[1].job.ID)
	}
	jr, ivs := e.resultOf(t, "M")
	if jr.Preemptions != 1 || !near(jr.Start, 1*u) || jr.Wait != 0 {
		t.Fatalf("M: %d preemptions, start %.6f, wait %.6f; want 1, %.6f, 0", jr.Preemptions, jr.Start, jr.Wait, 1*u)
	}
	// 200 iterations ran before the eviction at 3u; the other 800 run
	// from L's finish at 10u.
	if !near(jr.Finish, 18*u) {
		t.Fatalf("M finished at %.6f, want %.6f: the iterations it had run were not kept", jr.Finish, 18*u)
	}
	if len(ivs) != 2 || !near(ivs[0].Finish, 3*u) || !near(ivs[1].Start, 10*u) {
		t.Fatalf("M's intervals %+v", ivs)
	}
}

// TestPlacedAndEvictedInOneRound: when X finishes, one Schedule round
// places A and then evicts it for B, queued behind it. A's result counts
// the eviction and keeps the start of that zero-length placement; its
// iterations all run after B finishes.
func TestPlacedAndEvictedInOneRound(t *testing.T) {
	topo := topology.Power8Minsky()
	u := 100 * iterTime(t, topo)
	jobs := []*job.Job{
		wholeMachineJob("X", 1, 1000, 0),
		wholeMachineJob("A", 0, 1000, 1*u),
		wholeMachineJob("B", 1, 500, 2*u),
	}
	e := runEngine(t, Config{Topology: topo, Policy: schedcore.TopoAware, EnablePreemption: true}, jobs)

	if st := e.scheduler.Stats(); st.Preemptions != 1 || st.Evictions != 1 {
		t.Fatalf("%d preemptions, %d evictions; want 1 and 1", st.Preemptions, st.Evictions)
	}
	jr, ivs := e.resultOf(t, "A")
	if jr.Preemptions != 1 || !near(jr.Start, 10*u) || !near(jr.Wait, 9*u) || !near(jr.Finish, 25*u) {
		t.Fatalf("A: %d preemptions, start %.6f, wait %.6f, finish %.6f; want 1, %.6f, %.6f, %.6f",
			jr.Preemptions, jr.Start, jr.Wait, jr.Finish, 10*u, 9*u, 25*u)
	}
	if len(ivs) != 1 || !near(ivs[0].Start, 15*u) {
		t.Fatalf("A's intervals %+v, want the one from B's finish", ivs)
	}
}

// TestRunningTableHoldsOneRecordPerGPU: the running-record table has a
// record per GPU, not per job, no carry outlives the run, and the
// results count every eviction the core made.
func TestRunningTableHoldsOneRecordPerGPU(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	for _, n := range []int{3, 120} {
		var jobs []*job.Job
		for i := 0; i < n; i++ {
			j := job.New(fmt.Sprintf("j%03d", i), perfmodel.AlexNet, 1, 1+i%4, 0, float64(i)*0.01)
			j.Priority, j.Iterations = i%3, 50+37*i%400
			jobs = append(jobs, j)
		}
		e := runEngine(t, Config{Topology: topo, Policy: schedcore.TopoAwareP, EnablePreemption: true}, jobs)
		if len(e.running) != topo.NumGPUs() || len(e.carried) != 0 {
			t.Fatalf("%d jobs: %d running records, %d carries left; want %d and 0", n, len(e.running), len(e.carried), topo.NumGPUs())
		}
		preempts := 0
		for _, jr := range e.res.Jobs {
			preempts += jr.Preemptions
		}
		if evs := e.scheduler.Stats().Evictions; preempts != evs || n > 100 && evs == 0 {
			t.Fatalf("%d jobs: results count %d preemptions, the core %d evictions", n, preempts, evs)
		}
	}
}

// TestEnginesReturnTheCoreFault gives the second job an allocation on the
// core's cluster state before the run, so its placement is refused: both
// engines must stop there and return the core's fault, naming the job.
func TestEnginesReturnTheCoreFault(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	jobs := func() []*job.Job {
		return []*job.Job{wholeMachineJob("A", 0, 100, 0), wholeMachineJob("B", 0, 100, 1)}
	}
	squat := func(t *testing.T, c *schedcore.Core) {
		t.Helper()
		if err := c.State().Allocate("B", []int{topo.NumGPUs() - 1}, 0, perfmodel.Traits{GPUs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	want := "placing B: cluster: job B already allocated"
	cfg := Config{Topology: topo, Policy: schedcore.TopoAware}
	e, err := newEngine(cfg, jobs())
	if err != nil {
		t.Fatal(err)
	}
	squat(t, e.scheduler)
	if err := e.loop(2); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("simulator: %v, want the fault %q", err, want)
	}
	p, err := newProtoEngine(PrototypeConfig{Topology: topo, Policy: schedcore.TopoAware}, jobs())
	if err != nil {
		t.Fatal(err)
	}
	squat(t, p.scheduler)
	if err := p.loop(2); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("prototype: %v, want the fault %q", err, want)
	}
}
