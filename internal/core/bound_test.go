package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gputopo/internal/cluster"
	"gputopo/internal/job"
	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/topology"
)

// boundFleets are the fleets TestUtilityBoundAdmissible draws states on:
// each machine kind alone, and a mix whose degraded Minsky has sockets of
// two sizes.
var boundFleets = []string{"minsky:4", "dgx1:3", "pcie:4", "minsky:2+minsky-1g:2+dgx1:1+pcie:2"}

// TestUtilityBoundAdmissible: on random states over every fleet, for
// random jobs — custom communication graphs among them — and every
// machine with room, UtilityBound is at least the utility PlaceInto
// scores over that machine's free GPUs, compared as plain floats.
func TestUtilityBoundAdmissible(t *testing.T) {
	var cases, tight, mixed, busy int
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := mixedFleet(t, boundFleets[rng.Intn(len(boundFleets))])
		mapper, err := NewMapper(profile.Generate(topo, 3), DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		st := cluster.NewState(topo)
		populate(t, rng, st)
		for trial := 0; trial < 8; trial++ {
			tr := randomTraits(rng, 1+rng.Intn(4))
			j := job.New(fmt.Sprintf("j%d", trial), tr.Model, tr.Class.Size(), tr.GPUs, 0.5, 0)
			j.Parallelism = tr.Mode
			if tr.GPUs > 1 && trial%3 == 0 {
				if err := j.SetCommGraph(jobgraph.Ring(tr.GPUs, 1+rng.Float64()*3)); err != nil {
					t.Fatal(err)
				}
			}
			for m := 0; m < topo.NumMachines(); m++ {
				free := st.FreeGPUsOnMachine(m)
				var pl Placement
				if mapper.PlaceInto(&pl, j, st, free) != nil {
					continue
				}
				bound := mapper.UtilityBound(j, st, m, free)
				if bound < pl.Utility {
					t.Errorf("seed %d, %s on machine %d (free %v): bound %v < utility %v of %v",
						seed, j.ID, m, free, bound, pl.Utility, pl.GPUs)
					return false
				}
				cases++
				if bound == pl.Utility {
					tight++
				}
				if !oneSocketSize(st, free) {
					mixed++
				}
				if len(st.Residents(m)) > 0 {
					busy++
				}
			}
		}
		return true
	}
	// A fixed source: the coverage floors below are counts over the draws,
	// and a time-seeded run fell under the mixed-socket one about once in
	// twenty.
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cases: %d tight, %d over mixed socket sizes, %d with co-runners", cases, tight, mixed, busy)
	for name, n := range map[string]int{"tight": tight, "mixed socket sizes": mixed, "co-runners": busy} {
		if n < 100 {
			t.Errorf("only %d of %d cases cover %s", n, cases, name)
		}
	}
}

// TestUtilityBoundTightOnEmptyMachine: with no co-runner, one socket size
// and a job packed as well as the topology allows, the bound is the
// utility itself.
func TestUtilityBoundTightOnEmptyMachine(t *testing.T) {
	st, m := minskyState()
	j := job.New("j", perfmodel.AlexNet, 1, 2, 0.5, 0)
	free := st.FreeGPUsOnMachine(0)
	pl, err := m.Place(j, st, free)
	if err != nil {
		t.Fatal(err)
	}
	if bound := m.UtilityBound(j, st, 0, free); bound != pl.Utility {
		t.Fatalf("bound %v, utility %v", bound, pl.Utility)
	}
}

// TestUtilityBoundNegativeProfile: a profile product below zero would let
// the SameSocket factor shrink a term, so the bound gives up instead.
func TestUtilityBoundNegativeProfile(t *testing.T) {
	topo := topology.Power8Minsky()
	profiles := profile.Generate(topo, 4)
	busy := perfmodel.Traits{Model: perfmodel.AlexNet, Class: jobgraph.BatchTiny, GPUs: 1}
	profiles.Add(profile.Entry{Key: profile.KeyOf(busy), Sensitivity: 1, Pressure: -0.5})
	m, err := NewMapper(profiles, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	st := cluster.NewState(topo)
	if err := st.Allocate("busy", []int{0}, 0, busy); err != nil {
		t.Fatal(err)
	}
	j := job.New("j", perfmodel.AlexNet, 1, 1, 0.5, 0)
	if bound := m.UtilityBound(j, st, 0, st.FreeGPUsOnMachine(0)); bound <= 1 {
		t.Fatalf("bound %v under a negative pressure, want +Inf", bound)
	}
}

// TestUtilityBoundAllocatesNothing: the bound is asked once per class of
// every TOPO-AWARE decision, on a mixed machine and a uniform one alike.
func TestUtilityBoundAllocatesNothing(t *testing.T) {
	topo := mixedFleet(t, "minsky-1g:1+dgx1:1")
	mapper, err := NewMapper(profile.Generate(topo, 4), DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	st := cluster.NewState(topo)
	tr := perfmodel.Traits{Model: perfmodel.AlexNet, Class: jobgraph.BatchSmall, GPUs: 1}
	for i, pos := range []int{0, 3, 4} {
		if err := st.Allocate(fmt.Sprintf("j%d", i), []int{pos}, 1, tr); err != nil {
			t.Fatal(err)
		}
	}
	j := job.New("victim", perfmodel.CaffeRef, 4, 2, 0.5, 0)
	for m := 0; m < topo.NumMachines(); m++ {
		free := st.FreeGPUsOnMachine(m)
		mapper.UtilityBound(j, st, m, free)
		if n := testing.AllocsPerRun(100, func() { mapper.UtilityBound(j, st, m, free) }); n != 0 {
			t.Fatalf("UtilityBound on machine %d allocates %v times", m, n)
		}
	}
}

// TestClassBoundEqualsUtilityBound: one memo follows a state over each
// bound fleet through churn — allocations, releases, and trials whose
// releases Rollback undoes — and after every step, for jobs of four
// shapes, each class with room bounds through ClassBound to UtilityBound
// at every member, bit for bit. The churn frees class ids and hands them
// to other fingerprints, so an entry used past its fingerprint shows. Two
// of the shapes differ only in parallelism, which the profiles, built for
// two GPUs, do not key on; the three-GPU jobs fall back to perfmodel,
// which does.
func TestClassBoundEqualsUtilityBound(t *testing.T) {
	var cases, reassigned int
	for i, fleet := range boundFleets {
		rng := rand.New(rand.NewSource(int64(i)))
		topo := mixedFleet(t, fleet)
		mapper, err := NewMapper(profile.Generate(topo, 2), DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		st := cluster.NewState(topo)
		shapes := []perfmodel.Traits{randomTraits(rng, 3), {}, randomTraits(rng, 1), randomTraits(rng, 2)}
		shapes[1] = shapes[0]
		shapes[1].Mode = 1 - shapes[0].Mode
		jobs := make([]*job.Job, len(shapes))
		for k, tr := range shapes {
			jobs[k] = job.New(fmt.Sprintf("j%d", k), tr.Model, tr.Class.Size(), tr.GPUs, 0.5, 0)
			jobs[k].Parallelism = tr.Mode
		}
		var memo BoundMemo
		names := map[int]string{}
		check := func(step string) {
			for id := range st.Classes() {
				if name, ok := names[id]; ok && name != st.ClassName(id) {
					reassigned++
				}
				names[id] = st.ClassName(id)
			}
			for _, j := range jobs {
				for id, ms := range st.Classes() {
					if len(ms) == 0 || st.FreeCountOnMachine(int(ms[0])) < j.GPUs {
						continue
					}
					for _, m := range ms {
						got := mapper.ClassBound(&memo, j, st, id, int(m))
						want := mapper.UtilityBound(j, st, int(m), st.FreeGPUsOnMachine(int(m)))
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s, %s: %s on class %d, machine %d: ClassBound %v, UtilityBound %v",
								fleet, step, j.ID, id, m, got, want)
						}
						cases++
					}
				}
			}
		}
		release := func() {
			if ids := st.Jobs(); len(ids) > 0 {
				if err := st.Release(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for step := 0; step < 600; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				free := st.FreeGPUsOnMachine(rng.Intn(topo.NumMachines()))
				if len(free) == 0 {
					continue
				}
				rng.Shuffle(len(free), func(i, k int) { free[i], free[k] = free[k], free[i] })
				gpus := free[:1+rng.Intn(min(3, len(free)))]
				if err := st.Allocate(fmt.Sprintf("b%d", step), gpus, 1, randomTraits(rng, len(gpus))); err != nil {
					t.Fatal(err)
				}
			case 2:
				release()
			case 3:
				if err := st.Mark(); err != nil {
					t.Fatal(err)
				}
				release()
				release()
				check(fmt.Sprintf("step %d in a trial", step))
				st.Rollback()
			}
			check(fmt.Sprintf("step %d", step))
		}
		// A warm entry costs the final formula and nothing else.
		for id, ms := range st.Classes() {
			if len(ms) > 0 && st.FreeCountOnMachine(int(ms[0])) >= jobs[0].GPUs {
				if n := testing.AllocsPerRun(100, func() { mapper.ClassBound(&memo, jobs[0], st, id, int(ms[0])) }); n != 0 {
					t.Fatalf("%s: a warm ClassBound allocates %v times", fleet, n)
				}
			}
		}
	}
	t.Logf("%d bounds checked, %d class ids seen reassigned", cases, reassigned)
	if cases < 10000 || reassigned < 100 {
		t.Errorf("only %d bounds checked and %d ids reassigned", cases, reassigned)
	}
}
