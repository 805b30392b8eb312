package schedcore

import (
	"testing"

	"gputopo/internal/perfmodel"
	"gputopo/internal/topology"
)

// TestBandwidthConstraintFiltersHosts exercises the §4.3 capacity
// constraint t_bw <= p_bw end to end: a machine whose shared bus is fully
// committed must not receive new topology-aware placements.
func TestBandwidthConstraintFiltersHosts(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	s := newSched(t, TopoAwareP, topo)
	// Saturate machine 0's bus bookkeeping with a high-demand occupant.
	cap0 := s.State().FreeBusBandwidth(0)
	if err := s.State().Allocate("hog", []int{0}, cap0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	// A communication-heavy job must land on machine 1 even though
	// machine 0 has three free GPUs.
	_ = s.Submit(mkJob("bw", 1, 2, 0.0, 0))
	ds := s.Schedule()
	if ds[0].Postponed {
		t.Fatalf("postponed: %+v", ds[0])
	}
	ms := s.State().MachinesOf(ds[0].Placement.GPUs)
	if len(ms) != 1 || ms[0] != 1 {
		t.Fatalf("placed on machines %v, want [1] (machine 0 bus saturated)", ms)
	}
}

// TestBandwidthConstraintCanPostpone verifies that when every machine's
// bus is committed, the topology-aware scheduler postpones rather than
// oversubscribing.
func TestBandwidthConstraintCanPostpone(t *testing.T) {
	topo := topology.Power8Minsky()
	s := newSched(t, TopoAwareP, topo)
	if err := s.State().Allocate("hog", []int{0}, s.State().FreeBusBandwidth(0), perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	_ = s.Submit(mkJob("bw", 1, 2, 0.0, 0))
	ds := s.Schedule()
	if !ds[0].Postponed || ds[0].Reason != "no-capacity" {
		t.Fatalf("decision = %+v, want no-capacity postponement", ds[0])
	}
}

// TestMultiNodeFCFS covers the FCFS multi-node path: a job allowed to span
// machines takes the first free GPUs across the cluster.
func TestMultiNodeFCFS(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	s := newSched(t, FCFS, topo)
	if err := s.State().Allocate("occ", []int{0, 1, 2}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	j := mkJob("wide", 1, 3, 0.0, 0)
	j.SingleNode = false
	_ = s.Submit(j)
	ds := s.Schedule()
	if ds[0].Postponed {
		t.Fatalf("multi-node FCFS postponed: %+v", ds[0])
	}
	got := ds[0].Placement.GPUs
	want := []int{3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FCFS multi-node GPUs = %v, want %v", got, want)
		}
	}
}

// TestMultiNodeBestFit covers the Best-Fit multi-node path: GPUs come from
// the tightest machines first.
func TestMultiNodeBestFit(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	s := newSched(t, BestFit, topo)
	// Machine 0: 1 free GPU; machine 1: 4 free.
	if err := s.State().Allocate("occ", []int{0, 1, 2}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	j := mkJob("wide", 1, 3, 0.0, 0)
	j.SingleNode = false
	_ = s.Submit(j)
	ds := s.Schedule()
	if ds[0].Postponed {
		t.Fatal("multi-node BF postponed")
	}
	// Bin packing: the single free GPU of the tight machine 0 is consumed
	// before machine 1 contributes.
	got := ds[0].Placement.GPUs
	if got[0] != 3 {
		t.Fatalf("BF multi-node GPUs = %v, want GPU 3 first", got)
	}
}

// TestMultiNodeShortfall covers the not-enough-GPUs error paths of the
// multi-node branches.
func TestMultiNodeShortfall(t *testing.T) {
	topo := topology.Power8Minsky()
	for _, pol := range []Policy{FCFS, BestFit, TopoAware} {
		s := newSched(t, pol, topo)
		if err := s.State().Allocate("occ", []int{0, 1}, 0, perfmodel.Traits{}); err != nil {
			t.Fatal(err)
		}
		j := mkJob("wide", 1, 3, 0.0, 0)
		j.SingleNode = false
		_ = s.Submit(j)
		ds := s.Schedule()
		if len(ds) > 0 && !ds[0].Postponed {
			t.Fatalf("[%v] 3-GPU job placed with 2 free GPUs", pol)
		}
	}
}

// TestTopoAwareMultiNodePrefersOneMachine checks that a multi-node-capable
// job still packs onto a single machine when it fits (the paper's
// "preferentially places as many tasks as possible in the same node").
func TestTopoAwareMultiNodePrefersOneMachine(t *testing.T) {
	topo := topology.Cluster(3, topology.KindMinsky)
	s := newSched(t, TopoAware, topo)
	j := mkJob("pack", 1, 2, 0.5, 0)
	j.SingleNode = false
	_ = s.Submit(j)
	ds := s.Schedule()
	ms := s.State().MachinesOf(ds[0].Placement.GPUs)
	if len(ms) != 1 {
		t.Fatalf("2-GPU multi-node job spread over machines %v", ms)
	}
	if !topo.SameSocket(ds[0].Placement.GPUs[0], ds[0].Placement.GPUs[1]) {
		t.Fatal("pair not packed within a socket")
	}
}

// TestDecisionTimeAccumulates checks the §5.5.3 measurement plumbing.
func TestDecisionTimeAccumulates(t *testing.T) {
	s := newSched(t, TopoAware, topology.Power8Minsky())
	for i := 0; i < 3; i++ {
		_ = s.Submit(mkJob(jobIDs(i), 1, 1, 0.0, float64(i)))
	}
	s.Schedule()
	st := s.Stats()
	if st.Decisions != 3 || st.DecisionTime <= 0 || st.MaxDecision <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxDecision > st.DecisionTime {
		t.Fatal("max decision exceeds total")
	}
}

func jobIDs(i int) string { return string(rune('a' + i)) }
