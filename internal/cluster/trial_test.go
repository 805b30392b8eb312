package cluster

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gputopo/internal/perfmodel"
)

// trialStep is one mutation of a trial script. kind 0 releases the job at
// index n of the state's current job list (modulo its length); kind 1
// allocates 1 + n%3 free GPUs from free-list offset n/3 to a new job,
// n%50 tenths of bus bandwidth, traits drawn from n; kind 2 places the job
// the script released last again, under its own ID, the same way. A step
// with nothing to act on (no job, no free GPU, no release yet) does
// nothing.
type trialStep struct{ kind, n int }

// runSteps applies the script to s. The k-th step's new job is named
// prefix#k.
func runSteps(t *testing.T, s *State, steps []trialStep, prefix string) {
	t.Helper()
	var released []string
	for k, st := range steps {
		ids, free := s.Jobs(), s.FreeGPUs()
		id := fmt.Sprintf("%s#%d", prefix, k)
		switch {
		case st.kind == 0 && len(ids) > 0:
			released = append(released, ids[st.n%len(ids)])
			if err := s.Release(released[len(released)-1]); err != nil {
				t.Fatalf("%s: step %d: %v", prefix, k, err)
			}
			continue
		case st.kind == 2 && len(released) > 0:
			id = released[len(released)-1]
			released = released[:len(released)-1]
		case st.kind != 1:
			continue
		}
		if len(free) == 0 {
			continue
		}
		at := st.n / 3 % len(free)
		gpus := free[at:min(at+1+st.n%3, len(free))]
		tr := perfmodel.Traits{Model: perfmodel.NN(st.n % perfmodel.NumNN), Class: jobClass(st.n), GPUs: len(gpus), Mode: perfmodel.Parallelism(st.n / 8 % 2)}
		if err := s.Allocate(id, gpus, float64(st.n%50)/10, tr); err != nil {
			t.Fatalf("%s: step %d: %v", prefix, k, err)
		}
	}
}

// trialRoundTrip runs the script on s twice, each time inside a trial
// whose lazy views it reads mid-way — so the rollback meets recomputed
// fingerprints, moved class members and rebuilt resident rows. The first
// trial rolls back: s must then equal a Clone taken before it on every
// observable (sameAsBefore). The second commits: s must then equal a
// Clone that ran the script without a trial, slot for slot (sameSlots).
func trialRoundTrip(t *testing.T, s *State, steps []trialStep, context string) {
	t.Helper()
	before := s.Clone()
	plain := s.Clone()
	runSteps(t, plain, steps, context)
	allocs := map[string]*Allocation{}
	for _, id := range s.Jobs() {
		allocs[id] = s.Allocation(id)
	}
	for _, commit := range []bool{false, true} {
		if err := s.Mark(); err != nil {
			t.Fatalf("%s: Mark: %v", context, err)
		}
		if err := s.Mark(); err == nil {
			t.Fatalf("%s: a nested Mark was accepted", context)
		}
		runSteps(t, s, steps, context)
		if free := s.FreeGPUs(); len(free) > 0 {
			s.FragmentationAfter(free[:1])
		}
		for m := 0; m < s.Topology().NumMachines(); m++ {
			s.MachineClass(m)
			s.Residents(m)
		}
		s.MaxFreeGPUs()
		s.FreeMachines()
		// The trial's state is a consistent state: a clone of it, which has
		// no trial open, passes every check.
		if err := s.Clone().CheckInvariants(); err != nil {
			t.Fatalf("%s: mid-trial: %v", context, err)
		}
		if commit {
			s.Commit()
			sameSlots(t, s, plain, context)
		} else {
			s.Rollback()
			sameAsBefore(t, s, before, allocs, context)
		}
	}
}

// sameSlots holds s, just committed, to plain, which ran the same
// mutations outside a trial: slot for slot the same allocations, the same
// owner table, free list and job-ID map, the bits of every bus and of the
// Eq. 5 sum, the free counts, every fingerprint and resident row and the
// class pairing — and CheckInvariants, which also sees the trial closed.
func sameSlots(t *testing.T, s, plain *State, context string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: after Commit: %s", context, fmt.Sprintf(format, args...))
	}
	if len(s.slots) != len(plain.slots) {
		fail("%d slots, without a trial %d", len(s.slots), len(plain.slots))
	}
	for slot, a := range s.slots {
		p := plain.slots[slot]
		if (a == nil) != (p == nil) || a != nil && (a.JobID != p.JobID || !slices.Equal(a.GPUs, p.GPUs) ||
			math.Float64bits(a.Bandwidth) != math.Float64bits(p.Bandwidth) || a.Traits != p.Traits || a.Slot != p.Slot) {
			fail("slot %d holds %+v, without a trial %+v", slot, a, p)
		}
	}
	if !slices.Equal(s.owner, plain.owner) || !slices.Equal(s.freeSlots, plain.freeSlots) || !maps.Equal(s.ids, plain.ids) {
		fail("owner %v free %v ids %v, without a trial %v %v %v", s.owner, s.freeSlots, s.ids, plain.owner, plain.freeSlots, plain.ids)
	}
	if math.Float64bits(s.fragSum) != math.Float64bits(plain.fragSum) || !slices.Equal(s.freeHist, plain.freeHist) || s.FreeGPUCount() != plain.FreeGPUCount() {
		fail("Eq. 5 sum %v, histogram %v, free %d; without a trial %v %v %d", s.fragSum, s.freeHist, s.FreeGPUCount(), plain.fragSum, plain.freeHist, plain.FreeGPUCount())
	}
	for m := 0; m < s.Topology().NumMachines(); m++ {
		if math.Float64bits(s.busUsed[m]) != math.Float64bits(plain.busUsed[m]) || s.FreeCountOnMachine(m) != plain.FreeCountOnMachine(m) {
			fail("machine %d: bus %v, %d free; without a trial %v, %d", m, s.busUsed[m], s.FreeCountOnMachine(m), plain.busUsed[m], plain.FreeCountOnMachine(m))
		}
		if got, want := s.MachineFingerprint(m), plain.MachineFingerprint(m); got != want {
			fail("machine %d: fingerprint\n %q\nwithout a trial\n %q", m, got, want)
		}
		got, want := s.Residents(m), plain.Residents(m)
		if len(got) != len(want) {
			fail("machine %d: %d resident rows, without a trial %d", m, len(got), len(want))
		}
		for i, r := range got {
			if w := want[i]; r.Alloc.JobID != w.Alloc.JobID || r.Alloc.Slot != w.Alloc.Slot || r.Sockets != w.Sockets || r.GPUs != w.GPUs {
				fail("machine %d row %d: %s@%d %#x %d, without a trial %s@%d %#x %d", m, i, r.Alloc.JobID, r.Alloc.Slot, r.Sockets, r.GPUs, w.Alloc.JobID, w.Alloc.Slot, w.Sockets, w.GPUs)
			}
		}
	}
	got, want := memberOf(s), memberOf(plain)
	for a := range got {
		for b := a + 1; b < len(got); b++ {
			if (got[a] == got[b]) != (want[a] == want[b]) {
				fail("machines %d and %d are listed in classes %d and %d, without a trial %d and %d", a, b, got[a], got[b], want[a], want[b])
			}
		}
	}
	checkClassPairs(t, s, context+" after Commit")
	if err := s.CheckInvariants(); err != nil {
		fail("%v", err)
	}
}

// sameAsBefore holds s, just rolled back, to before, a Clone taken ahead
// of the trial: the owner table, the very *Allocation values (allocs),
// the bits of every bus and of the Eq. 5 sum, the free counts and the
// free-count histogram, the free-slot list and the slot table's length,
// every fingerprint, every resident row, the class pairing and the class
// membership as a pairing (ids may renumber) — and CheckInvariants, which
// also sees the trial closed.
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
	if !slices.Equal(s.freeSlots, before.freeSlots) || len(s.slots) != len(before.slots) {
		fail("free slots %v of %d, before %v of %d", s.freeSlots, len(s.slots), before.freeSlots, len(before.slots))
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
// and, every few steps, a trial script of one to six random releases,
// allocations and re-placements of a job the script released, rolled
// back and then committed (trialRoundTrip). dgx1-1g's three-GPU socket
// makes the Eq. 5 deltas inexact thirds and the bandwidths are tenths, so
// a rollback that re-derived a float sum instead of restoring it would
// show in the bits.
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
					steps := make([]trialStep, 1+rng.Intn(6))
					for k := range steps {
						steps[k] = trialStep{kind: []int{0, 0, 1, 1, 2}[rng.Intn(5)], n: rng.Intn(1000)}
					}
					trialRoundTrip(t, s, steps, fmt.Sprintf("%s seed %d step %d", mix, seed, step))
					trials++
				}
			}
		}
	}
	t.Logf("%d trials rolled back and committed", trials)
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
