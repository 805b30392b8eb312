package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// trialRoundTrip opens a trial on s, releases the jobs pick selects (by
// their index in s.Jobs()), reads every lazy view mid-trial — so the
// rollback meets recomputed fingerprints, moved class members and rebuilt
// resident rows — and rolls back. s must then equal a Clone taken before
// the trial on every observable (sameAsBefore).
func trialRoundTrip(t *testing.T, s *State, pick func(i int) bool, context string) {
	t.Helper()
	before := s.Clone()
	allocs := map[string]*Allocation{}
	for _, id := range s.Jobs() {
		allocs[id] = s.Allocation(id)
	}
	if err := s.Mark(); err != nil {
		t.Fatalf("%s: Mark: %v", context, err)
	}
	if err := s.Mark(); err == nil {
		t.Fatalf("%s: a nested Mark was accepted", context)
	}
	for i, id := range before.Jobs() {
		if pick(i) {
			if err := s.Release(id); err != nil {
				t.Fatalf("%s: %v", context, err)
			}
		}
	}
	if free := s.FreeGPUs(); len(free) > 0 {
		if err := s.Allocate("inside-trial", free[:1], 0, traits()); err == nil {
			t.Fatalf("%s: Allocate inside a trial succeeded", context)
		}
		s.FragmentationAfter(free[:1])
	}
	for m := 0; m < s.Topology().NumMachines(); m++ {
		s.MachineClass(m)
		s.Residents(m)
	}
	s.MaxFreeGPUs()
	s.FreeMachines()
	// The trial's state is a consistent state: a clone of it, which has no
	// trial open, passes every check.
	if err := s.Clone().CheckInvariants(); err != nil {
		t.Fatalf("%s: mid-trial: %v", context, err)
	}
	s.Rollback()
	sameAsBefore(t, s, before, allocs, context)
}

// sameAsBefore holds s, just rolled back, to before, a Clone taken ahead
// of the trial: the owner table, the very *Allocation values (allocs),
// the bits of every bus and of the Eq. 5 sum, the free counts and the
// free-count histogram, every fingerprint, every resident row, the class
// pairing and the class membership as a pairing (ids may renumber) — and
// CheckInvariants, which also sees the trial closed.
func sameAsBefore(t *testing.T, s, before *State, allocs map[string]*Allocation, context string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: after Rollback: %s", context, fmt.Sprintf(format, args...))
	}
	if !slices.Equal(s.freeHist, before.freeHist) {
		fail("free-count histogram %v, before %v", s.freeHist, before.freeHist)
	}
	if math.Float64bits(s.fragSum) != math.Float64bits(before.fragSum) {
		fail("Eq. 5 sum %v, before %v", s.fragSum, before.fragSum)
	}
	if !slices.Equal(s.owner, before.owner) {
		fail("owner table %v, before %v", s.owner, before.owner)
	}
	if got := s.Jobs(); !slices.Equal(got, before.Jobs()) || len(got) != len(allocs) {
		fail("jobs %v, before %v", got, before.Jobs())
	}
	for id, a := range allocs {
		if s.Allocation(id) != a {
			fail("job %s has a new *Allocation", id)
		}
	}
	if s.FreeGPUCount() != before.FreeGPUCount() {
		fail("free total %d, before %d", s.FreeGPUCount(), before.FreeGPUCount())
	}
	for m := 0; m < s.Topology().NumMachines(); m++ {
		if math.Float64bits(s.busUsed[m]) != math.Float64bits(before.busUsed[m]) {
			fail("machine %d: bus %v, before %v", m, s.busUsed[m], before.busUsed[m])
		}
		if s.FreeCountOnMachine(m) != before.FreeCountOnMachine(m) {
			fail("machine %d: %d free, before %d", m, s.FreeCountOnMachine(m), before.FreeCountOnMachine(m))
		}
		if got, want := s.MachineFingerprint(m), before.MachineFingerprint(m); got != want {
			fail("machine %d: fingerprint\n %q\nbefore\n %q", m, got, want)
		}
		got, want := s.Residents(m), before.Residents(m)
		if len(got) != len(want) {
			fail("machine %d: %d resident rows, before %d", m, len(got), len(want))
		}
		for i, r := range got {
			w := want[i]
			if r.Alloc != allocs[w.Alloc.JobID] || r.Sockets != w.Sockets || r.GPUs != w.GPUs {
				fail("machine %d row %d: %s %#x %d, before %s %#x %d", m, i, r.Alloc.JobID, r.Sockets, r.GPUs, w.Alloc.JobID, w.Sockets, w.GPUs)
			}
		}
	}
	if s.MaxFreeGPUs() != before.MaxFreeGPUs() || s.FreeMachines() != before.FreeMachines() {
		fail("MaxFreeGPUs/FreeMachines %d/%d, before %d/%d", s.MaxFreeGPUs(), s.FreeMachines(), before.MaxFreeGPUs(), before.FreeMachines())
	}
	got, want := memberOf(s), memberOf(before)
	for a := range got {
		for b := a + 1; b < len(got); b++ {
			if (got[a] == got[b]) != (want[a] == want[b]) {
				fail("machines %d and %d are listed in classes %d and %d, before %d and %d", a, b, got[a], got[b], want[a], want[b])
			}
		}
	}
	checkClassPairs(t, s, context+" after Rollback")
	if err := s.CheckInvariants(); err != nil {
		fail("%v", err)
	}
}

// memberOf reads s's class index and returns, per machine, the id of the
// member list it appears in, -1 for a machine out of the index.
func memberOf(s *State) []int {
	out := make([]int, s.Topology().NumMachines())
	for m := range out {
		out[m] = -1
	}
	for c, ms := range s.Classes() {
		for _, m := range ms {
			out[m] = c
		}
	}
	return out
}

// TestTrialRollsBackExactly drives random Allocate/Release histories
// and, every few steps, a trial that releases a random subset of the jobs
// and rolls back (trialRoundTrip). dgx1-1g's three-GPU socket makes the
// Eq. 5 deltas inexact thirds and the bandwidths are tenths, so a
// rollback that re-derived a float sum instead of restoring it would show
// in the bits.
func TestTrialRollsBackExactly(t *testing.T) {
	trials := 0
	for _, mix := range []string{"minsky:2+minsky-1g:1+dgx1:1+dgx1-1g:1+pcie:1", "dgx1-1g:3", "minsky:4"} {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := fpState(t, mix)
			for step := 0; step < 150; step++ {
				if rng.Intn(3) > 0 {
					randomAllocate(t, rng, s, jobName(step))
				} else {
					randomRelease(t, rng, s)
				}
				if rng.Intn(4) == 0 {
					// Some trials start from clean fingerprints, some from
					// stale ones.
					for m := 0; m < s.Topology().NumMachines(); m++ {
						s.MachineClass(m)
					}
				}
				if rng.Intn(5) == 0 {
					trialRoundTrip(t, s, func(int) bool { return rng.Intn(2) == 0 }, fmt.Sprintf("%s seed %d step %d", mix, seed, step))
					trials++
				}
			}
		}
	}
	t.Logf("%d trials rolled back", trials)
}

// TestRollbackWithoutTrial: with no trial open there is nothing to undo.
func TestRollbackWithoutTrial(t *testing.T) {
	s := fpState(t, "minsky:2")
	if err := s.Allocate("a", []int{0}, 0.3, traits()); err != nil {
		t.Fatal(err)
	}
	s.Rollback()
	if s.Allocation("a") == nil || s.FreeGPUCount() != 7 {
		t.Fatal("Rollback without a trial changed the state")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTrialAllocatesNothing: once its journal has grown, a trial that
// releases a job and rolls it back allocates nothing — the victim search
// opens one per candidate set.
func TestTrialAllocatesNothing(t *testing.T) {
	s := fpState(t, "minsky:2")
	if err := s.Allocate("a", []int{2, 3, 4}, 0.7, traits()); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := s.Mark(); err != nil {
			t.Fatal(err)
		}
		if err := s.Release("a"); err != nil {
			t.Fatal(err)
		}
		s.Rollback()
	}); n != 0 {
		t.Fatalf("a trial allocates %v objects", n)
	}
}
