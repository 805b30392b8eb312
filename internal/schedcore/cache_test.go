package schedcore

import (
	"reflect"
	"testing"

	"gputopo/internal/topology"
)

// TestPlaceCacheHitsAcrossEquivalentMachines: on a homogeneous fleet fed
// identical jobs every decision must equal what the uncached placer (the
// differential reference's arithmetic) computes on the same state. The
// class sweep asks the LRU once per distinct machine shape, so equivalent
// machines inside one decision no longer count as hits; a hit is a
// decision finding the state as an earlier one left it — here, a job
// released and an identical one submitted.
func TestPlaceCacheHitsAcrossEquivalentMachines(t *testing.T) {
	s := newSchedWith(t, TopoAware, topology.Cluster(8, topology.KindMinsky))
	uncached := NewPlacer(TopoAware, s.State(), s.mapper)

	place := func(i int) {
		t.Helper()
		j := mkJob(jobID(i), 16, 2, 0, float64(i))
		want, _ := uncached.Attempt(j)
		if want == nil {
			t.Fatalf("round %d: uncached placer found no placement", i)
		}
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		ds := s.Schedule()
		if len(ds) != 1 || ds[0].Postponed {
			t.Fatalf("round %d: want one placement, got %+v", i, ds)
		}
		if got := ds[0].Placement; !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: cached %+v, uncached %+v", i, got, want)
		}
	}
	for i := 0; i < 16; i++ {
		place(i)
	}
	if st := s.Stats(); st.PlaceCacheHits != 0 {
		t.Fatalf("16 decisions on 16 distinct states hit the LRU: %+v", st)
	}
	if err := s.Release(jobID(15)); err != nil {
		t.Fatal(err)
	}
	place(16) // the state round 15 saw, the same job signature
	if st := s.Stats(); st.PlaceCacheHits == 0 {
		t.Fatalf("replaying a decision on an unchanged state missed: %+v", st)
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
	// fleet before pooling. 600 leaves slack for queue and decision
	// bookkeeping while still failing loudly on a clone regression.
	if avg > 600 {
		t.Fatalf("preemption cycle allocates %.0f/op, want <= 600", avg)
	}
}
