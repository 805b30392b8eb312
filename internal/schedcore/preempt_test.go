package schedcore

import (
	"testing"

	"gputopo/internal/job"
	"gputopo/internal/topology"
)

func mkPrioJob(id string, gpus, prio int, arrival float64) *job.Job {
	j := mkJob(id, 1, gpus, 0, arrival)
	j.Priority = prio
	return j
}

// placedIDs extracts the IDs of the placed decisions, in order.
func placedIDs(decs []*Decision) []string {
	var ids []string
	for _, d := range decs {
		if !d.Postponed {
			ids = append(ids, d.Job.ID)
		}
	}
	return ids
}

func TestPriorityDisciplineOrdersQueue(t *testing.T) {
	s := newSchedWith(t, FCFS, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	_ = s.Submit(mkPrioJob("low-early", 1, 0, 1))
	_ = s.Submit(mkPrioJob("high-late", 1, 1, 10))
	_ = s.Submit(mkPrioJob("high-early", 1, 1, 5))
	q := s.Queued()
	if q[0].ID != "high-early" || q[1].ID != "high-late" || q[2].ID != "low-early" {
		t.Fatalf("priority queue order: %v %v %v", q[0].ID, q[1].ID, q[2].ID)
	}
	if s.Discipline() != "priority-arrival" {
		t.Fatalf("discipline name %q", s.Discipline())
	}
}

func TestPreemptionEvictsYoungestLowerPriority(t *testing.T) {
	s := newSchedWith(t, TopoAwareP, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	_ = s.Submit(mkPrioJob("low1", 2, 0, 0))
	_ = s.Submit(mkPrioJob("low2", 2, 0, 1))
	if ids := placedIDs(s.Schedule()); len(ids) != 2 {
		t.Fatalf("setup placements: %v", ids)
	}

	_ = s.Submit(mkPrioJob("high", 2, 1, 2))
	decs := s.Schedule()
	if ids := placedIDs(decs); len(ids) != 1 || ids[0] != "high" {
		t.Fatalf("expected preemptive placement of high, got %v", ids)
	}
	var evs []Eviction
	for _, d := range decs {
		if d.Job.ID == "high" {
			evs = d.Evictions
		}
	}
	// Victim order prefers the youngest job inside the lowest tier: low2
	// loses less progress than low1.
	if len(evs) != 1 || evs[0].Job.ID != "low2" || len(evs[0].GPUs) != 2 {
		t.Fatalf("evictions: %+v", evs)
	}
	if st := s.Stats(); st.Preemptions != 1 || st.Evictions != 1 {
		t.Fatalf("stats: preemptions=%d evictions=%d", st.Preemptions, st.Evictions)
	}
	// The victim is back in the queue; the preemptor and survivor run.
	if q := s.Queued(); len(q) != 1 || q[0].ID != "low2" {
		t.Fatalf("queue after eviction: %v", q)
	}
	if run := s.Running(); len(run) != 2 || run[0] != "high" || run[1] != "low1" {
		t.Fatalf("running after eviction: %v", run)
	}

	// When the preemptor finishes, the victim resumes on the freed GPUs.
	if err := s.Release("high"); err != nil {
		t.Fatal(err)
	}
	if ids := placedIDs(s.Schedule()); len(ids) != 1 || ids[0] != "low2" {
		t.Fatalf("victim not re-placed: %v", ids)
	}
}

func TestPreemptionOffPostpones(t *testing.T) {
	s := newSchedWith(t, TopoAwareP, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	_ = s.Submit(mkPrioJob("low1", 2, 0, 0))
	_ = s.Submit(mkPrioJob("low2", 2, 0, 1))
	_ = s.Schedule()
	_ = s.Submit(mkPrioJob("high", 2, 1, 2))
	decs := s.Schedule()
	if ids := placedIDs(decs); len(ids) != 0 {
		t.Fatalf("placements with preemption off: %v", ids)
	}
	if st := s.Stats(); st.Preemptions != 0 || st.Evictions != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPreemptionEvictsLowestTierFirst(t *testing.T) {
	s := newSchedWith(t, TopoAwareP, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	// prio-1 arrived later than prio-0: tier must beat recency.
	_ = s.Submit(mkPrioJob("tier0", 2, 0, 0))
	_ = s.Submit(mkPrioJob("tier1", 2, 1, 5))
	_ = s.Schedule()
	_ = s.Submit(mkPrioJob("top", 2, 2, 6))
	decs := s.Schedule()
	if ids := placedIDs(decs); len(ids) != 1 || ids[0] != "top" {
		t.Fatalf("expected top placed, got %v", ids)
	}
	for _, d := range decs {
		if d.Job.ID == "top" {
			if len(d.Evictions) != 1 || d.Evictions[0].Job.ID != "tier0" {
				t.Fatalf("expected tier0 evicted, got %+v", d.Evictions)
			}
		}
	}
}

func TestPreemptionNeverEvictsEqualPriority(t *testing.T) {
	s := newSchedWith(t, TopoAwareP, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	_ = s.Submit(mkPrioJob("a", 2, 1, 0))
	_ = s.Submit(mkPrioJob("b", 2, 1, 1))
	_ = s.Schedule()
	_ = s.Submit(mkPrioJob("c", 2, 1, 2))
	if ids := placedIDs(s.Schedule()); len(ids) != 0 {
		t.Fatalf("equal-priority eviction happened: %v", ids)
	}
	if st := s.Stats(); st.Preemptions != 0 {
		t.Fatalf("preemptions: %d", st.Preemptions)
	}
}

func TestZeroPriorityNeverPreempts(t *testing.T) {
	// Preemption enabled, but the arriving job has the default priority 0:
	// it must park/postpone like before — only positive priorities are
	// eligible, which is also what keeps the wake-up index sound.
	s := newSchedWith(t, TopoAwareP, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	_ = s.Submit(mkPrioJob("a", 2, 0, 0))
	_ = s.Submit(mkPrioJob("b", 2, 0, 1))
	_ = s.Schedule()
	_ = s.Submit(mkPrioJob("c", 2, 0, 2))
	if ids := placedIDs(s.Schedule()); len(ids) != 0 {
		t.Fatalf("zero-priority job preempted: %v", ids)
	}
}

func TestPreemptionGreedyVictimPrefix(t *testing.T) {
	// Machine holds a 2-GPU job and two 1-GPU jobs; a high-priority 2-GPU
	// arrival needs 2 GPUs freed.
	s := newSchedWith(t, TopoAwareP, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	_ = s.Submit(mkPrioJob("pair", 2, 0, 0))
	_ = s.Submit(mkPrioJob("solo1", 1, 0, 1))
	_ = s.Submit(mkPrioJob("solo2", 1, 0, 2))
	if ids := placedIDs(s.Schedule()); len(ids) != 3 {
		t.Fatalf("setup placements: %v", ids)
	}
	_ = s.Submit(mkPrioJob("high", 2, 1, 3))
	decs := s.Schedule()
	var evs []Eviction
	for _, d := range decs {
		if d.Job.ID == "high" && !d.Postponed {
			evs = d.Evictions
		}
	}
	// The per-machine greedy walks candidates youngest-first and stops at
	// the first prefix that frees enough GPUs: [solo2, solo1] frees 2, so
	// the pair job — oldest, most progress to lose — survives.
	if len(evs) != 2 || evs[0].Job.ID != "solo2" || evs[1].Job.ID != "solo1" {
		t.Fatalf("victim set: %+v", evs)
	}
}

func TestPreemptionMultiNode(t *testing.T) {
	// A 6-GPU multi-node job on a full 2×Minsky cluster must evict across
	// machines via the cluster-wide greedy.
	topo := topology.Cluster(2, topology.KindMinsky)
	s := newSchedWith(t, TopoAwareP, topo, WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	for i, id := range []string{"a", "b", "c", "d"} {
		_ = s.Submit(mkPrioJob(id, 2, 0, float64(i)))
	}
	if ids := placedIDs(s.Schedule()); len(ids) != 4 {
		t.Fatalf("setup placements: %v", ids)
	}
	big := mkPrioJob("big", 6, 1, 10)
	big.SingleNode = false
	_ = s.Submit(big)
	decs := s.Schedule()
	var placed bool
	for _, d := range decs {
		if d.Job.ID == "big" && !d.Postponed {
			placed = true
			if len(d.Evictions) != 3 {
				t.Fatalf("multi-node evictions: %+v", d.Evictions)
			}
		}
	}
	if !placed {
		t.Fatal("multi-node preemption did not place")
	}
	if st := s.Stats(); st.Preemptions != 1 || st.Evictions != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func jobID(i int) string {
	return string([]byte{'j', byte('a' + i/26), byte('a' + i%26)})
}

// TestVictimSearchAllocs pins the preemption satellite: evaluating a
// victim candidate must reuse the pooled scratch clone, not allocate a
// fresh deep copy per prefix. The cycle below preempts, restores, and
// re-places every iteration; with clone-per-candidate on a 16-machine
// fleet it costs thousands of allocations, with the pooled scratch a
// few hundred (decision records, eviction lists, queue churn).
func TestVictimSearchAllocs(t *testing.T) {
	topo := topology.Cluster(16, topology.KindMinsky)
	s := newSchedWith(t, TopoAwareP, topo, WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	// Fill the cluster with low-priority 4-GPU jobs so any arrival must
	// preempt and the victim search walks all 16 machine proposals.
	for i := 0; i < 16; i++ {
		if err := s.Submit(mkPrioJob(jobID(i), 4, 0, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if ids := placedIDs(s.Schedule()); len(ids) != 16 {
		t.Fatalf("setup placed %d jobs", len(ids))
	}

	n := 0
	avg := testing.AllocsPerRun(20, func() {
		hi := mkPrioJob("hi", 4, 1, 100)
		if err := s.Submit(hi); err != nil {
			t.Fatal(err)
		}
		decs := s.Schedule()
		var victim string
		for _, d := range decs {
			if d.Job.ID == "hi" && len(d.Evictions) > 0 {
				victim = d.Evictions[0].Job.ID
			}
		}
		if victim == "" {
			t.Fatal("expected a preemptive placement")
		}
		// Undo: release the high-priority job; the victim re-places on
		// the freed capacity, restoring the all-full steady state.
		if err := s.Release("hi"); err != nil {
			t.Fatal(err)
		}
		if ids := placedIDs(s.Schedule()); len(ids) != 1 {
			t.Fatalf("victim did not re-place: %v", ids)
		}
		n++
	})
	// Clone-per-candidate costs >60 allocations per evaluated machine
	// (owner slice, maps, per-allocation copies) — about 2000/op on this
	// fleet before pooling, against ~350 with it. Every victim trial runs
	// the mapper, whose pooled scratch the race detector drops at random
	// (~730/op under -race); 1000 covers that while still failing loudly
	// on a clone regression.
	if avg > 1000 {
		t.Fatalf("preemption cycle allocates %.0f/op, want <= 1000", avg)
	}
}
