package cluster

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/topology"
)

func traits() perfmodel.Traits {
	return perfmodel.Traits{Model: perfmodel.AlexNet, Class: jobgraph.BatchTiny, GPUs: 2}
}

func TestAllocateReleaseLifecycle(t *testing.T) {
	st := NewState(topology.Power8Minsky())
	if err := st.Allocate("j1", []int{0, 1}, 5, traits()); err != nil {
		t.Fatal(err)
	}
	if st.Owner(0) != "j1" || st.Owner(1) != "j1" {
		t.Fatal("ownership not recorded")
	}
	if st.FreeGPUCount() != 2 {
		t.Fatalf("free = %d", st.FreeGPUCount())
	}
	a := st.Allocation("j1")
	if a == nil || len(a.GPUs) != 2 || a.Bandwidth != 5 {
		t.Fatalf("allocation = %+v", a)
	}
	if a.Traits != traits() {
		t.Fatalf("traits = %+v", a.Traits)
	}
	if err := st.Release("j1"); err != nil {
		t.Fatal(err)
	}
	if st.FreeGPUCount() != 4 {
		t.Fatal("release did not free GPUs")
	}
	if st.Allocation("j1") != nil {
		t.Fatal("allocation survived release")
	}
}

// TestAllocateReleaseAllocs: committing and uncommitting a job's bus
// walks its GPUs' machine runs in place, so Release allocates nothing and
// Allocate only the Allocation and its copy of the GPUs — here for a job
// spanning two machines, with a fingerprint table for touch to mark.
func TestAllocateReleaseAllocs(t *testing.T) {
	st := NewState(topology.Cluster(2, topology.KindMinsky))
	st.MachineClass(0)
	gpus := []int{2, 3, 4} // two on machine 0, one on machine 1
	if n := testing.AllocsPerRun(100, func() {
		if err := st.Allocate("j", gpus, 5, traits()); err != nil {
			t.Fatal(err)
		}
		if err := st.Release("j"); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Fatalf("Allocate+Release allocates %v objects, want the Allocation and its GPUs", n)
	}
}

func TestAllocateErrors(t *testing.T) {
	st := NewState(topology.Power8Minsky())
	if err := st.Allocate("", []int{0}, 0, traits()); err == nil {
		t.Fatal("empty job ID accepted")
	}
	if err := st.Allocate("j", nil, 0, traits()); err == nil {
		t.Fatal("empty GPU list accepted")
	}
	if err := st.Allocate("j", []int{9}, 0, traits()); err == nil {
		t.Fatal("out-of-range GPU accepted")
	}
	if err := st.Allocate("j", []int{1, 1}, 0, traits()); err == nil {
		t.Fatal("duplicate GPU accepted")
	}
	if err := st.Allocate("j", []int{0}, 0, traits()); err != nil {
		t.Fatal(err)
	}
	if err := st.Allocate("j", []int{1}, 0, traits()); err == nil {
		t.Fatal("double allocation for one job accepted")
	}
	if err := st.Allocate("k", []int{0}, 0, traits()); err == nil {
		t.Fatal("occupied GPU accepted")
	}
	if err := st.Release("ghost"); err == nil {
		t.Fatal("releasing unknown job accepted")
	}
}

func TestFreeGPUsAndMachines(t *testing.T) {
	st := NewState(topology.Cluster(2, topology.KindMinsky))
	if err := st.Allocate("j1", []int{0, 1}, 1, traits()); err != nil {
		t.Fatal(err)
	}
	free0 := st.FreeGPUsOnMachine(0)
	if len(free0) != 2 {
		t.Fatalf("machine 0 free = %v", free0)
	}
	if got := len(st.FreeGPUsOnMachine(1)); got != 4 {
		t.Fatalf("machine 1 free = %d", got)
	}
	if rs := st.Residents(0); len(rs) != 1 || rs[0].Alloc != st.Allocation("j1") || rs[0].Sockets != 1 {
		t.Fatalf("residents of machine 0 = %+v", rs)
	}
	if rs := st.Residents(1); len(rs) != 0 {
		t.Fatalf("residents of machine 1 = %+v", rs)
	}
	if ms := st.MachinesOf([]int{0, 5}); len(ms) != 2 {
		t.Fatalf("machines of cross allocation = %v", ms)
	}
}

func TestFragmentationEq5(t *testing.T) {
	st := NewState(topology.Power8Minsky())
	// Empty cluster: every socket fully free -> ω = 1.
	if got := st.Fragmentation(); got != 1 {
		t.Fatalf("empty fragmentation = %v", got)
	}
	// One GPU taken on socket 0: (0.5 + 1.0)/2 = 0.75.
	if err := st.Allocate("j1", []int{0}, 0, traits()); err != nil {
		t.Fatal(err)
	}
	if got := st.Fragmentation(); got != 0.75 {
		t.Fatalf("fragmentation = %v, want 0.75", got)
	}
	// FragmentationAfter previews without mutating.
	if got := st.FragmentationAfter([]int{1}); got != 0.5 {
		t.Fatalf("after = %v, want 0.5", got)
	}
	if got := st.Fragmentation(); got != 0.75 {
		t.Fatal("FragmentationAfter mutated state")
	}
	// Fully allocated machine: ω = 0.
	if err := st.Allocate("j2", []int{1, 2, 3}, 0, traits()); err != nil {
		t.Fatal(err)
	}
	if got := st.Fragmentation(); got != 0 {
		t.Fatalf("full fragmentation = %v", got)
	}
}

func TestFragmentationBoundsProperty(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	f := func(mask uint8) bool {
		st := NewState(topo)
		for pos := 0; pos < 8; pos++ {
			if mask&(1<<pos) != 0 {
				if err := st.Allocate(string(rune('a'+pos)), []int{pos}, 0, traits()); err != nil {
					return false
				}
			}
		}
		w := st.Fragmentation()
		return w >= 0 && w <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBusBandwidthAccounting(t *testing.T) {
	st := NewState(topology.Power8Minsky())
	cap0 := st.FreeBusBandwidth(0)
	if cap0 != busCapacity {
		t.Fatalf("initial free bandwidth = %v", cap0)
	}
	if err := st.Allocate("j1", []int{0, 2}, 10, traits()); err != nil {
		t.Fatal(err)
	}
	if got := st.FreeBusBandwidth(0); math.Abs(got-(cap0-10)) > 1e-9 {
		t.Fatalf("free bandwidth after alloc = %v", got)
	}
	if err := st.Release("j1"); err != nil {
		t.Fatal(err)
	}
	if got := st.FreeBusBandwidth(0); math.Abs(got-cap0) > 1e-9 {
		t.Fatalf("free bandwidth after release = %v", got)
	}
}

// TestBusResidueIsDropped: releases in a different order than the
// allocations leave a float residue on the bus (0.1+0.2+0.3-0.1-0.2-0.3
// is not 0); an emptied bus must read exactly its capacity again, or the
// t_bw <= p_bw filter would drift with history.
func TestBusResidueIsDropped(t *testing.T) {
	st := NewState(topology.Power8Minsky())
	for i, bw := range []float64{0.1, 0.2, 0.3} {
		if err := st.Allocate(fmt.Sprintf("j%d", i), []int{i}, bw, traits()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := st.Release(fmt.Sprintf("j%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.FreeBusBandwidth(0); got != busCapacity {
		t.Fatalf("free bandwidth of an emptied bus = %v, want exactly %v", got, busCapacity)
	}
}

func TestBusBandwidthSpansMachines(t *testing.T) {
	st := NewState(topology.Cluster(2, topology.KindMinsky))
	if err := st.Allocate("j1", []int{3, 4}, 7, traits()); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		if got := busCapacity - st.FreeBusBandwidth(m); math.Abs(got-7) > 1e-9 {
			t.Fatalf("machine %d committed = %v", m, got)
		}
	}
}

func TestJobsSorted(t *testing.T) {
	st := NewState(topology.Power8Minsky())
	_ = st.Allocate("zeta", []int{0}, 0, traits())
	_ = st.Allocate("alpha", []int{1}, 0, traits())
	jobs := st.Jobs()
	if len(jobs) != 2 || jobs[0] != "alpha" || jobs[1] != "zeta" {
		t.Fatalf("jobs = %v", jobs)
	}
}

func TestCloneIndependence(t *testing.T) {
	st := NewState(topology.Power8Minsky())
	_ = st.Allocate("j1", []int{0}, 3, traits())
	c := st.Clone()
	if err := c.Allocate("j2", []int{1}, 2, traits()); err != nil {
		t.Fatal(err)
	}
	if st.Owner(1) != "" {
		t.Fatal("clone mutation leaked to original")
	}
	if err := c.Release("j1"); err != nil {
		t.Fatal(err)
	}
	if st.Owner(0) != "j1" {
		t.Fatal("clone release leaked to original")
	}
	if c.Allocation("j1") != nil {
		t.Fatal("clone release failed")
	}
}

func TestAllocationGPUsSorted(t *testing.T) {
	st := NewState(topology.Power8Minsky())
	if err := st.Allocate("j1", []int{3, 0}, 0, traits()); err != nil {
		t.Fatal(err)
	}
	a := st.Allocation("j1")
	if a.GPUs[0] != 0 || a.GPUs[1] != 3 {
		t.Fatalf("GPUs not sorted: %v", a.GPUs)
	}
}
