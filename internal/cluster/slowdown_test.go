package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gputopo/internal/perfmodel"
)

// slowdownNaiveSim is the running-job slowdown as the trace-driven
// simulator computed it before State.Slowdown existed (engine.interferenceOn
// over its own byMachine index): gather the IDs of every job with a GPU on
// one of the victim's machines, sort and deduplicate them, decide
// SameSocket with a topology.SameSocket nest over the two GPU lists, and
// sum CoLocationSlowdown in that order. Derived from Jobs/Allocation alone
// — no resident table. Besides the slowdown it reports what the case
// covered, so the test can tell a comparison from a vacuous one.
func slowdownNaiveSim(s *State, victim *Allocation) (slowdown float64, spans, sharesSocket bool) {
	topo := s.Topology()
	machines := s.MachinesOf(victim.GPUs)
	var ids []string
	for _, m := range machines {
		for _, id := range s.Jobs() {
			if id == victim.JobID {
				continue
			}
			if slices.Contains(s.MachinesOf(s.Allocation(id).GPUs), m) {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	var sum float64
	for _, id := range ids {
		other := s.Allocation(id)
		locality := perfmodel.SameMachine
		for _, g := range victim.GPUs {
			for _, og := range other.GPUs {
				if topo.SameSocket(g, og) {
					locality = perfmodel.SameSocket
					sharesSocket = true
				}
			}
		}
		sum += perfmodel.CoLocationSlowdown(victim.Traits, other.Traits, locality)
	}
	return perfmodel.CapSlowdown(sum), len(machines) > 1, sharesSocket
}

// slowdownNaiveProto is the same quantity as the iteration-level
// prototype computed it (protoEngine.interferenceOn): every running job in
// sorted-ID order, locality from a SameSocket / SameMachine nest, jobs on
// other machines skipped.
func slowdownNaiveProto(s *State, victim *Allocation) float64 {
	topo := s.Topology()
	var sum float64
	for _, id := range s.Jobs() {
		if id == victim.JobID {
			continue
		}
		other := s.Allocation(id)
		locality := perfmodel.DifferentMachine
		for _, g := range victim.GPUs {
			for _, og := range other.GPUs {
				switch {
				case topo.SameSocket(g, og):
					locality = perfmodel.SameSocket
				case topo.SameMachine(g, og) && locality != perfmodel.SameSocket:
					locality = perfmodel.SameMachine
				}
			}
		}
		if locality == perfmodel.DifferentMachine {
			continue
		}
		sum += perfmodel.CoLocationSlowdown(victim.Traits, other.Traits, locality)
	}
	return perfmodel.CapSlowdown(sum)
}

// antiCollocate places a job one GPU per machine on two to four machines
// with a free GPU — the §4.4 anti-collocation shape, which workload.Generate
// never emits.
func antiCollocate(t *testing.T, rng *rand.Rand, s *State, id string) {
	t.Helper()
	var gpus []int
	want := 2 + rng.Intn(3)
	for _, m := range rng.Perm(s.Topology().NumMachines()) {
		if free := s.FreeGPUsOnMachine(m); len(free) > 0 && len(gpus) < want {
			gpus = append(gpus, free[rng.Intn(len(free))])
		}
	}
	if len(gpus) == 0 {
		return
	}
	tr := randomTraits(rng, len(gpus))
	if err := s.Allocate(id, gpus, float64(rng.Intn(5)), tr); err != nil {
		t.Fatal(err)
	}
}

// TestSlowdownMatchesNaive holds State.Slowdown to both engines' former
// enumerations, to the bit, for every running job after every step of
// random Allocate/Release sequences that include multi-node and
// anti-collocated jobs. A victim spanning machines is the case no sweep
// golden reaches (workload.Generate emits single-node jobs only) and the
// one where ID-major order differs from the mapper's machine-major one.
func TestSlowdownMatchesNaive(t *testing.T) {
	cases, spanning, sameSocket := 0, 0, 0
	for _, mix := range []string{"minsky:5", "dgx1:4", "pcie:4", "minsky:2+minsky-1g:1+dgx1:1+pcie:1"} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := fpState(t, mix)
			for step := 0; step < 100; step++ {
				id := fmt.Sprintf("j%03d", step)
				switch r := rng.Intn(10); {
				case r < 5:
					randomAllocate(t, rng, s, id)
				case r < 7:
					antiCollocate(t, rng, s, id)
				default:
					randomRelease(t, rng, s)
				}
				for _, jid := range s.Jobs() {
					a := s.Allocation(jid)
					got := s.Slowdown(a)
					sim, spans, shares := slowdownNaiveSim(s, a)
					proto := slowdownNaiveProto(s, a)
					if math.Float64bits(got) != math.Float64bits(sim) || math.Float64bits(got) != math.Float64bits(proto) {
						t.Fatalf("%s seed %d step %d, job %s on %v: Slowdown %v (%#x), simulator enumeration %v (%#x), prototype enumeration %v (%#x)",
							mix, seed, step, jid, a.GPUs, got, math.Float64bits(got), sim, math.Float64bits(sim), proto, math.Float64bits(proto))
					}
					cases++
					if spans {
						spanning++
					}
					if shares {
						sameSocket++
					}
				}
			}
		}
	}
	t.Logf("%d cases: %d with a victim spanning machines, %d sharing a socket with a co-runner", cases, spanning, sameSocket)
	if spanning < 100 || sameSocket < 100 {
		t.Fatalf("vacuous coverage: %d multi-machine victims, %d socket-sharing cases (want >= 100 each)", spanning, sameSocket)
	}
}

// TestSlowdownAllocationFree pins the per-event cost: on a state whose
// resident tables are built, Slowdown allocates nothing.
func TestSlowdownAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := fpState(t, "minsky:3+dgx1:1")
	for i := 0; i < 12; i++ {
		randomAllocate(t, rng, s, fmt.Sprintf("j%02d", i))
		antiCollocate(t, rng, s, fmt.Sprintf("k%02d", i))
	}
	var allocs []*Allocation
	for _, id := range s.Jobs() {
		allocs = append(allocs, s.Allocation(id))
	}
	var sink float64
	run := func() {
		for _, a := range allocs {
			sink += s.Slowdown(a)
		}
	}
	run() // warm: builds every touched machine's resident table
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("Slowdown allocated %v times per pass over %d running jobs", n, len(allocs))
	}
	_ = sink
}
