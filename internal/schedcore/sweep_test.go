package schedcore

import (
	"reflect"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/jobgraph"
	"gputopo/internal/topology"
)

// TestSweepAsksOncePerShape: eight empty Minsky machines are one shape
// class, so a decision evaluates one host — not eight — and the class's
// representative, machine 0, takes the job.
func TestSweepAsksOncePerShape(t *testing.T) {
	s := newSched(t, TopoAware, topology.Cluster(8, topology.KindMinsky))
	if err := s.Submit(mkJob("a", 16, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	ds := s.Schedule()
	if len(ds) != 1 || ds[0].Postponed {
		t.Fatalf("want one placement, got %+v", ds)
	}
	if n := classesEvaluated(&s.place); n != 1 {
		t.Fatalf("eight empty machines evaluated as %d classes", n)
	}
	if m := s.State().MachinesOf(ds[0].Placement.GPUs); !reflect.DeepEqual(m, []int{0}) {
		t.Fatalf("placed on machines %v, want the class representative 0", m)
	}
}

// TestSweepEqualUtilityKeepsLowerMachine: two machines of different shape
// classes whose best placements score the same — mirror images, one busy
// GPU on socket 0 here and on socket 1 there — resolve to the lower
// index, as the per-machine sweep's strict > does.
func TestSweepEqualUtilityKeepsLowerMachine(t *testing.T) {
	s := newSched(t, TopoAware, topology.Cluster(2, topology.KindMinsky))
	st := s.State()
	busy := mkJob("busy", 16, 1, 0, 0).Traits()
	if err := st.Allocate("m0", []int{0}, 0, busy); err != nil { // machine 0, socket 0
		t.Fatal(err)
	}
	if err := st.Allocate("m1", []int{6}, 0, busy); err != nil { // machine 1, socket 1
		t.Fatal(err)
	}
	if st.MachineFingerprint(0) == st.MachineFingerprint(1) {
		t.Fatal("setup: the two machines fold into one class")
	}
	j := mkJob("a", 16, 1, 0, 0)
	u := [2]float64{}
	for m := range u {
		pl, err := s.mapper.Place(j, st, st.FreeGPUsOnMachine(m))
		if err != nil {
			t.Fatal(err)
		}
		u[m] = pl.Utility
	}
	if u[0] != u[1] {
		t.Fatalf("setup: utilities differ, %v vs %v", u[0], u[1])
	}
	want, _ := NewPlacer(TopoAware, st, s.mapper).Attempt(j)
	got, _ := s.place.attempt(j)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("class sweep %+v, per-machine sweep %+v", got, want)
	}
	if m := st.MachinesOf(got.GPUs); !reflect.DeepEqual(m, []int{0}) {
		t.Fatalf("equal utilities resolved to machines %v, want 0", m)
	}
}

// TestDecisionAllocatesTwo: one TOPO-AWARE single-node decision
// allocates exactly the placement it returns and that placement's GPUs,
// whatever the fleet and however many hosts it scores — classes are
// scored into the placer's scratch. Each fleet holds one busy machine
// and otherwise empty ones; with the fold off (the differential
// reference) every host is scored, so an allocation per class or per
// host fails on every fleet.
func TestDecisionAllocatesTwo(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the mapper's pooled scratch allocates")
	}
	for _, machines := range []int{8, 64} {
		for _, perMachine := range []bool{false, true} {
			topo := topology.Cluster(machines, topology.KindMinsky)
			st := cluster.NewState(topo)
			if err := st.Allocate("busy", []int{0}, 0, mkJob("busy", 16, 1, 0, 0).Traits()); err != nil {
				t.Fatal(err)
			}
			p := placer{policy: TopoAware, state: st, mapper: mapperUpTo4(t, topo), perMachine: perMachine}
			j := mkJob("a", 16, 2, 0, 0)
			if n := testing.AllocsPerRun(50, func() {
				if pl, _ := p.attempt(j); pl == nil {
					t.Fatal("no placement")
				}
			}); n != 2 {
				t.Errorf("minsky:%d, perMachine %t: one decision allocates %v objects, want 2", machines, perMachine, n)
			}
		}
	}
}

// TestSweepFoldsCustomCommGraphs: a job with its own communication graph
// is as fixed within one sweep as any other job, so equal-shape machines
// fold for it too.
func TestSweepFoldsCustomCommGraphs(t *testing.T) {
	s := newSched(t, TopoAware, topology.Cluster(8, topology.KindMinsky))
	j := mkJob("ring", 16, 4, 0, 0)
	if err := j.SetCommGraph(jobgraph.Ring(4, 2)); err != nil {
		t.Fatal(err)
	}
	want, _ := NewPlacer(TopoAware, s.State(), s.mapper).Attempt(j)
	got, _ := s.place.attempt(j)
	if got == nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("class sweep %+v, per-machine sweep %+v", got, want)
	}
	if n := classesEvaluated(&s.place); n != 1 {
		t.Fatalf("eight empty machines evaluated as %d classes", n)
	}
}

// classesEvaluated counts the classes the placer's last single-node
// sweep stamped.
func classesEvaluated(p *placer) int {
	n := 0
	for _, g := range p.classSeen {
		if g == p.gen {
			n++
		}
	}
	return n
}
