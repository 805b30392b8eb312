package schedcore

import (
	"reflect"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/jobgraph"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore/placecache"
	"gputopo/internal/topology"
)

// TestSweepAsksOncePerShape: eight empty Minsky machines are one shape
// class, so a decision asks the LRU once — not once per host — and the
// class's representative, machine 0, takes the job.
func TestSweepAsksOncePerShape(t *testing.T) {
	s := newSched(t, TopoAware, topology.Cluster(8, topology.KindMinsky))
	if err := s.Submit(mkJob("a", 16, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	ds := s.Schedule()
	if len(ds) != 1 || ds[0].Postponed {
		t.Fatalf("want one placement, got %+v", ds)
	}
	if st := s.Stats(); st.PlaceCacheHits+st.PlaceCacheMisses != 1 {
		t.Fatalf("one class, %d LRU lookups: %+v", st.PlaceCacheHits+st.PlaceCacheMisses, st)
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

// TestAttemptAllocsFollowClasses: what one decision allocates follows the
// number of shape classes, not the number of hosts. Both fleets hold one
// busy machine and otherwise empty ones — two classes — and the state
// stands still, so after the first decision each one is two LRU hits and
// one Placement for the winner, on either fleet. (Misses would run the
// mapper, whose sync.Pool the race detector perturbs.)
func TestAttemptAllocsFollowClasses(t *testing.T) {
	allocs := func(machines int) float64 {
		topo := topology.Cluster(machines, topology.KindMinsky)
		st := cluster.NewState(topo)
		if err := st.Allocate("busy", []int{0}, 0, mkJob("busy", 16, 1, 0, 0).Traits()); err != nil {
			t.Fatal(err)
		}
		mapper, err := core.NewMapper(profile.Generate(topo, 4), core.DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		p := placer{policy: TopoAware, state: st, mapper: mapper, cache: placecache.New(0)}
		j := mkJob("a", 16, 2, 0, 0)
		n := testing.AllocsPerRun(50, func() {
			if pl, _ := p.attempt(j); pl == nil {
				t.Fatal("no placement")
			}
		})
		if st := p.cache.Stats(); st.Misses != 2 || st.Hits != 2*50 {
			t.Fatalf("minsky:%d: want two lookups a decision, got %+v", machines, st)
		}
		return n
	}
	// Equal in a plain run; the race detector's runtime adds an object now
	// and then. A per-host cost would show as two objects for each of the
	// 56 additional hosts.
	if small, large := allocs(8), allocs(64); large > small+2 {
		t.Fatalf("one decision allocates %v on minsky:8 and %v on minsky:64 at two classes each", small, large)
	}
}

// TestSweepFoldsCustomCommGraphs: a job with its own communication graph
// has no cache signature, but within one sweep it is as fixed as any
// other job, so equal-shape machines still fold — and the LRU is never
// asked.
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
	if st := s.Stats(); st.PlaceCacheHits+st.PlaceCacheMisses != 0 {
		t.Fatalf("uncacheable job reached the LRU: %+v", st)
	}
	if len(s.place.classSeen) != 1 {
		t.Fatalf("eight empty machines evaluated as %d classes", len(s.place.classSeen))
	}
}
