package schedcore

import (
	"fmt"
	"reflect"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/job"
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

// dominatedFleet returns a scheduler over eight Minsky machines: machine
// empty is idle, and each other machine holds one job of a batch size and
// GPU count no other machine's job has, so each is a class of its own
// whose co-runners cap its UtilityBound below the empty machine's
// placement of the returned two-GPU job.
func dominatedFleet(t *testing.T, empty int) (*Core, *job.Job) {
	t.Helper()
	s := newSched(t, TopoAware, topology.Cluster(8, topology.KindMinsky))
	st := s.State()
	k := 0
	for m := 0; m < 8; m++ {
		if m == empty {
			continue
		}
		k++
		gpus := []int{4 * m}
		if k > 4 {
			gpus = append(gpus, 4*m+1)
		}
		busy := mkJob(fmt.Sprintf("busy%d", m), 1<<(2*(k%4)), len(gpus), 0, 0)
		if err := st.Allocate(busy.ID, gpus, 0, busy.Traits()); err != nil {
			t.Fatal(err)
		}
	}
	classes := map[int]bool{}
	for m := 0; m < 8; m++ {
		classes[st.MachineClass(m)] = true
	}
	if len(classes) != 8 {
		t.Fatalf("setup: eight machines fold into %d classes", len(classes))
	}
	return s, mkJob("a", 16, 2, 0, 0)
}

// TestSweepPrunesDominatedClasses: an empty machine 0 ahead of seven
// busy machines, each a class of its own, is mapped once: every busy
// machine's bound is below the empty machine's placement, so the sweep
// stops after its DRB run — and still agrees with the per-machine
// reference.
func TestSweepPrunesDominatedClasses(t *testing.T) {
	s, j := dominatedFleet(t, 0)
	want, _ := NewPlacer(TopoAware, s.State(), s.mapper).Attempt(j)
	got, _ := s.place.attempt(j)
	if got == nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("pruned sweep %+v, per-machine sweep %+v", got, want)
	}
	if n := classesEvaluated(&s.place); n != 8 {
		t.Fatalf("sweep bounded %d classes, want 8", n)
	}
	if s.place.scored != 1 {
		t.Fatalf("sweep mapped %d classes, want 1", s.place.scored)
	}
}

// TestSweepMapsBestBoundFirst: with the empty machine last, at index 7,
// the sweep still maps it alone — classes go by descending bound, not by
// machine, and the empty machine's bound leads.
func TestSweepMapsBestBoundFirst(t *testing.T) {
	s, j := dominatedFleet(t, 7)
	want, _ := NewPlacer(TopoAware, s.State(), s.mapper).Attempt(j)
	got, _ := s.place.attempt(j)
	if got == nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("class sweep %+v, per-machine sweep %+v", got, want)
	}
	if m := s.State().MachinesOf(got.GPUs); !reflect.DeepEqual(m, []int{7}) {
		t.Fatalf("placed on machines %v, want the empty machine 7", m)
	}
	if s.place.scored != 1 {
		t.Fatalf("sweep mapped %d classes, want 1", s.place.scored)
	}
}

// TestSweepVisitsClassesNotMachines: on minsky:64 with a handful of
// classes, a decision checks the bus of one machine per class plus the
// machines the bus filter turns away — not sixty-four — and agrees with
// the per-machine reference.
func TestSweepVisitsClassesNotMachines(t *testing.T) {
	topo := topology.Cluster(64, topology.KindMinsky)
	s := New(TopoAware, cluster.NewState(topo), mapperUpTo4(t, topo))
	st := s.State()
	// Every eighth machine holds one of two job kinds; the rest are empty.
	for m := 0; m < 64; m += 8 {
		busy := mkJob(fmt.Sprintf("busy%d", m), 4<<(m/8%2), 1, 0, 0)
		if err := st.Allocate(busy.ID, []int{4 * m}, 0, busy.Traits()); err != nil {
			t.Fatal(err)
		}
	}
	j := mkJob("a", 16, 2, 0, 0)
	classes := map[int]bool{}
	rejected := 0
	demand := estimateDemand(j, st)
	for m := 0; m < 64; m++ {
		classes[st.MachineClass(m)] = true
		if st.FreeBusBandwidth(m) < demand {
			rejected++
		}
	}
	if len(classes) > 4 {
		t.Fatalf("setup: %d classes, want a handful", len(classes))
	}
	want, _ := NewPlacer(TopoAware, st, s.mapper).Attempt(j)
	got, _ := s.place.attempt(j)
	if got == nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("class sweep %+v, per-machine sweep %+v", got, want)
	}
	if v := s.place.visited; v > len(classes)+rejected {
		t.Fatalf("sweep visited %d machines, want at most %d classes + %d bus rejections", v, len(classes), rejected)
	}
}

// TestSweepRepresentativeSkipsSaturatedBus: four machines holding twin
// jobs are one class, but machine 0's bus is oversubscribed. The bus is
// not in the fingerprint, so the sweep walks the class to machine 1, as
// the per-machine filter does.
func TestSweepRepresentativeSkipsSaturatedBus(t *testing.T) {
	s := newSched(t, TopoAware, topology.Cluster(4, topology.KindMinsky))
	st := s.State()
	busy := mkJob("busy", 16, 1, 0, 0).Traits()
	for m := 0; m < 4; m++ {
		bw := 0.0
		if m == 0 {
			bw = 2 * st.FreeBusBandwidth(0) // oversubscribed: below any demand
		}
		if err := st.Allocate(fmt.Sprintf("busy%d", m), []int{4 * m}, bw, busy); err != nil {
			t.Fatal(err)
		}
	}
	if len(classesOf(st)) != 1 {
		t.Fatal("setup: the four machines are not one class")
	}
	j := mkJob("a", 16, 2, 0, 0)
	want, _ := NewPlacer(TopoAware, st, s.mapper).Attempt(j)
	got, _ := s.place.attempt(j)
	if got == nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("class sweep %+v, per-machine sweep %+v", got, want)
	}
	if m := st.MachinesOf(got.GPUs); !reflect.DeepEqual(m, []int{1}) {
		t.Fatalf("placed on machines %v, want the first member with bus headroom, 1", m)
	}
	if s.place.visited != 2 {
		t.Fatalf("sweep visited %d machines, want 2", s.place.visited)
	}
}

// mirroredPair returns a two-Minsky scheduler whose machines are of
// different shape classes but whose best placements of the returned
// one-GPU job score the same — mirror images, one busy GPU on socket 0
// of machine 0 and on socket 1 of machine 1 — with each machine's
// utility.
func mirroredPair(t *testing.T) (*Core, *job.Job, [2]float64) {
	t.Helper()
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
	return s, j, u
}

// TestSweepEqualUtilityKeepsLowerMachine: two machines whose best
// placements score the same resolve to the lower index, as the
// per-machine sweep's strict > does.
func TestSweepEqualUtilityKeepsLowerMachine(t *testing.T) {
	s, j, _ := mirroredPair(t)
	want, _ := NewPlacer(TopoAware, s.State(), s.mapper).Attempt(j)
	got, _ := s.place.attempt(j)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("class sweep %+v, per-machine sweep %+v", got, want)
	}
	if m := s.State().MachinesOf(got.GPUs); !reflect.DeepEqual(m, []int{0}) {
		t.Fatalf("equal utilities resolved to machines %v, want 0", m)
	}
}

// TestSweepBoundEqualToBestKeepsLowerMachine: in the mirrored pair the
// bound of machine 1 is exactly machine 0's utility — its one co-runner
// is off the socket the job takes. A bound equal to the best at a higher
// machine is not mapped, which keeps machine 0 as the strict > would.
func TestSweepBoundEqualToBestKeepsLowerMachine(t *testing.T) {
	s, j, u := mirroredPair(t)
	st := s.State()
	if bound := s.mapper.UtilityBound(j, st, 1, st.FreeGPUsOnMachine(1)); bound != u[0] {
		t.Fatalf("setup: machine 1 bound %v, machine 0 utility %v", bound, u[0])
	}
	got, _ := s.place.attempt(j)
	if s.place.scored != 1 {
		t.Fatalf("sweep mapped %d classes, want 1", s.place.scored)
	}
	if m := st.MachinesOf(got.GPUs); !reflect.DeepEqual(m, []int{0}) {
		t.Fatalf("a bound equal to the best resolved to machines %v, want 0", m)
	}
}

// TestSweepEqualBoundsMapLowerMachineFirst: both machines of the mirrored
// pair bound at the same value, which is both utilities. Equal bounds go
// by representative, so machine 0 is mapped first and wins, and machine 1
// is not mapped.
func TestSweepEqualBoundsMapLowerMachineFirst(t *testing.T) {
	s, j, u := mirroredPair(t)
	st := s.State()
	for m := 0; m < 2; m++ {
		if bound := s.mapper.UtilityBound(j, st, m, st.FreeGPUsOnMachine(m)); bound != u[m] {
			t.Fatalf("setup: machine %d bound %v, utility %v", m, bound, u[m])
		}
	}
	want, _ := NewPlacer(TopoAware, st, s.mapper).Attempt(j)
	got, _ := s.place.attempt(j)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("class sweep %+v, per-machine sweep %+v", got, want)
	}
	// Machine 1 first would have been mapped, and machine 0 after it.
	if s.place.scored != 1 {
		t.Fatalf("sweep mapped %d classes, want 1", s.place.scored)
	}
	if m := st.MachinesOf(got.GPUs); !reflect.DeepEqual(m, []int{0}) {
		t.Fatalf("equal bounds resolved to machines %v, want 0", m)
	}
}

// TestSweepEqualUtilityAtLowerMachineWinsLate: on mix[minsky-3g +
// minsky-1g] a one-GPU job scores the same on both machines — each offers
// a GPU alone in its socket — but machine 1's free GPUs sit in sockets of
// two sizes, so its bound is loose and it is mapped first. Machine 0's
// bound equals that utility at a lower machine, so it is mapped too, and
// wins on equal utility, as in the per-machine sweep.
func TestSweepEqualUtilityAtLowerMachineWinsLate(t *testing.T) {
	specs, err := topology.ParseMix("minsky-3g:1+minsky-1g:1")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.HeterogeneousCluster(specs)
	if err != nil {
		t.Fatal(err)
	}
	s := newSched(t, TopoAware, topo)
	st := s.State()
	j := mkJob("a", 16, 1, 0, 0)
	var u, bound [2]float64
	for m := range u {
		free := st.FreeGPUsOnMachine(m)
		pl, err := s.mapper.Place(j, st, free)
		if err != nil {
			t.Fatal(err)
		}
		u[m], bound[m] = pl.Utility, s.mapper.UtilityBound(j, st, m, free)
	}
	if u[0] != u[1] || bound[0] != u[0] || !(bound[1] > bound[0]) {
		t.Fatalf("setup: utilities %v, bounds %v; want equal utilities, machine 0's bound equal to them and machine 1's above", u, bound)
	}
	want, _ := NewPlacer(TopoAware, st, s.mapper).Attempt(j)
	got, _ := s.place.attempt(j)
	if got == nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("class sweep %+v, per-machine sweep %+v", got, want)
	}
	if m := st.MachinesOf(got.GPUs); !reflect.DeepEqual(m, []int{0}) {
		t.Fatalf("placed on machines %v, want the lower machine 0", m)
	}
	if s.place.scored != 2 {
		t.Fatalf("sweep mapped %d classes, want 2", s.place.scored)
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
// sweep bounded.
func classesEvaluated(p *placer) int { return len(p.classes) }

// classesOf returns the live classes of st's index.
func classesOf(st *cluster.State) [][]int32 {
	var out [][]int32
	for _, ms := range st.Classes() {
		if len(ms) > 0 {
			out = append(out, ms)
		}
	}
	return out
}
