package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gputopo/internal/perfmodel"
)

// randomAllocate places a job on one to four random free GPUs — anywhere
// in the cluster, so some jobs span machines — with random traits and a
// bandwidth in tenths, whose sums are inexact.
func randomAllocate(t *testing.T, rng *rand.Rand, s *State, id string) {
	t.Helper()
	free := s.FreeGPUs()
	if len(free) == 0 {
		return
	}
	rng.Shuffle(len(free), func(i, k int) { free[i], free[k] = free[k], free[i] })
	gpus := free[:min(1+rng.Intn(4), len(free))]
	if rng.Intn(3) > 0 {
		// Mostly single-machine jobs, as the schedulers place them.
		onOne := s.FreeGPUsOnMachine(s.Topology().GPU(gpus[0]).Machine)
		gpus = onOne[:min(len(gpus), len(onOne))]
	}
	tr := randomTraits(rng, len(gpus))
	if err := s.Allocate(id, gpus, float64(rng.Intn(50))/10, tr); err != nil {
		t.Fatal(err)
	}
}

func randomTraits(rng *rand.Rand, gpus int) perfmodel.Traits {
	return perfmodel.Traits{
		Model: perfmodel.NN(rng.Intn(perfmodel.NumNN)),
		Class: jobClass(rng.Intn(8)),
		GPUs:  gpus,
		Mode:  perfmodel.Parallelism(rng.Intn(2)),
	}
}

func randomRelease(t *testing.T, rng *rand.Rand, s *State) {
	t.Helper()
	if ids := s.Jobs(); len(ids) > 0 {
		if err := s.Release(ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReusedSlotKeepsJobIDOrder frees a slot and lets a job with a later
// ID take it, so slot order and job-ID order disagree, and holds the
// resident rows and every slowdown to a state that allocated the same
// jobs in ID order, slot for slot: rows ascend by job ID and Eq. 4 sums
// in that order, whatever slots the jobs hold.
func TestReusedSlotKeepsJobIDOrder(t *testing.T) {
	s := fpState(t, "dgx1:1")
	type spec struct {
		id   string
		gpus []int
		tr   perfmodel.Traits
	}
	jobs := []spec{
		{"a", []int{0}, perfmodel.Traits{Model: perfmodel.AlexNet, Class: jobClass(1), GPUs: 1}},
		{"b", []int{1, 2}, perfmodel.Traits{Model: perfmodel.GoogLeNet, Class: jobClass(5), GPUs: 2}},
		{"c", []int{4}, perfmodel.Traits{Model: perfmodel.CaffeRef, Class: jobClass(3), GPUs: 1}},
		{"z", []int{3, 5}, perfmodel.Traits{Model: perfmodel.AlexNet, Class: jobClass(7), GPUs: 2, Mode: perfmodel.Parallelism(1)}},
	}
	for _, j := range jobs[:3] {
		if err := s.Allocate(j.id, j.gpus, 1, j.tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Release("a"); err != nil {
		t.Fatal(err)
	}
	z := jobs[3]
	if err := s.Allocate(z.id, z.gpus, 1, z.tr); err != nil {
		t.Fatal(err)
	}
	if got, b := s.Allocation("z").Slot, s.Allocation("b").Slot; got != 0 || b != 1 {
		t.Fatalf("z took slot %d and b holds %d, want z in a's freed slot 0 below b's 1", got, b)
	}
	inOrder := fpState(t, "dgx1:1")
	for _, j := range jobs[1:] {
		if err := inOrder.Allocate(j.id, j.gpus, 1, j.tr); err != nil {
			t.Fatal(err)
		}
	}
	var rowIDs []string
	for i, r := range s.Residents(0) {
		w := inOrder.Residents(0)[i]
		if r.Alloc.JobID != w.Alloc.JobID || r.Sockets != w.Sockets || r.GPUs != w.GPUs {
			t.Fatalf("row %d is %s %#x %d, the ID-ordered state's is %s %#x %d", i, r.Alloc.JobID, r.Sockets, r.GPUs, w.Alloc.JobID, w.Sockets, w.GPUs)
		}
		rowIDs = append(rowIDs, r.Alloc.JobID)
	}
	if !slices.Equal(rowIDs, []string{"b", "c", "z"}) {
		t.Fatalf("resident rows %v, want b, c, z", rowIDs)
	}
	for _, id := range []string{"b", "c", "z"} {
		got, want := s.Slowdown(s.Allocation(id)), inOrder.Slowdown(inOrder.Allocation(id))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: slowdown %v, the ID-ordered state gives %v", id, got, want)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResidentsMatchScratch drives random Allocate/Release/Clone/CopyFrom
// sequences over a primary state and two what-if states taken from it,
// and after every step holds every machine's resident table, on all
// three, to the from-scratch derivation (owner scan + SameSocket). All
// three are checked each time, so a row buffer shared across Clone or
// CopyFrom shows as soon as one side rebuilds it.
func TestResidentsMatchScratch(t *testing.T) {
	for _, mix := range []string{"minsky:3", "dgx1:2", "pcie:2", "minsky:2+minsky-1g:1+dgx1:1+pcie:1"} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			primary := fpState(t, mix)
			states := []*State{primary, primary.Clone(), primary.Clone()}
			check := func(step int, op string) {
				t.Helper()
				for i, s := range states {
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("%s seed %d step %d (%s), state %d: %v", mix, seed, step, op, i, err)
					}
					checkClassPairs(t, s, fmt.Sprintf("%s seed %d step %d (%s), state %d", mix, seed, step, op, i))
				}
			}
			check(-1, "empty")
			for step := 0; step < 120; step++ {
				s := states[rng.Intn(len(states))]
				var op string
				switch r := rng.Intn(10); {
				case r < 5:
					op = "allocate"
					randomAllocate(t, rng, s, fmt.Sprintf("j%03d", step))
				case r < 8:
					op = "release"
					randomRelease(t, rng, s)
				case r < 9:
					op = "clone"
					states[1+rng.Intn(2)] = primary.Clone()
				default:
					op = "copyfrom"
					states[1+rng.Intn(2)].CopyFrom(primary)
				}
				check(step, op)
			}
		}
	}
}

// TestResidentRebuildAllocatesNothing: once a row's buffer has held the
// machine's residents, dirtying and rebuilding it is allocation-free.
func TestResidentRebuildAllocatesNothing(t *testing.T) {
	s := fpState(t, "dgx1:1")
	tr := perfmodel.Traits{Model: perfmodel.AlexNet, Class: 1, GPUs: 2, Mode: perfmodel.DataParallel}
	for i := 0; i < 4; i++ {
		if err := s.Allocate(jobName(i), []int{2 * i, 2*i + 1}, 1, tr); err != nil {
			t.Fatal(err)
		}
	}
	s.Residents(0)
	if n := testing.AllocsPerRun(100, func() {
		s.touch(0)
		if len(s.Residents(0)) != 4 {
			t.Fatal("resident rows lost")
		}
	}); n != 0 {
		t.Fatalf("rebuilding a warmed resident row allocates %v times", n)
	}
}

// TestCheckInvariantsCatchesEachTable corrupts one machine-indexed table
// at a time on a populated state and demands CheckInvariants name it:
// the check is only worth calling after every difftest round if no table
// can drift behind it.
func TestCheckInvariantsCatchesEachTable(t *testing.T) {
	s := fpState(t, "minsky:2+minsky-1g:1+dgx1:1")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		randomAllocate(t, rng, s, jobName(i))
	}
	for m := 0; m < s.Topology().NumMachines(); m++ {
		s.MachineFingerprint(m)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		table   string
		corrupt func() (restore func())
		want    string
	}{
		{"freeOnMachine", func() func() { s.freeOnMachine[1]++; return func() { s.freeOnMachine[1]-- } }, "machine 1: free count"},
		{"freeTotal", func() func() { s.freeTotal--; return func() { s.freeTotal++ } }, "free total"},
		{"busUsed", func() func() { s.busUsed[0] += 0.5; return func() { s.busUsed[0] -= 0.5 } }, "machine 0:"},
		{"fragSum", func() func() { s.fragSum += 0.25; return func() { s.fragSum -= 0.25 } }, "Fragmentation"},
		{"freeHist", func() func() { s.freeHist[0]++; return func() { s.freeHist[0]-- } }, "histogram"},
		// Swapped together with the two classes' member lists, so the
		// index still matches: only the per-machine fingerprint check can
		// see it.
		{"fp", func() func() {
			swap := func() {
				m := s.classes.members
				c2, c3 := s.fp[2].class, s.fp[3].class
				s.fp[2], s.fp[3] = s.fp[3], s.fp[2]
				m[c2], m[c3] = m[c3], m[c2]
			}
			swap()
			return swap
		}, "machine 2: fingerprint"},
		{"fp.class", func() func() { old := s.fp[1].class; s.fp[1].class = 99; return func() { s.fp[1].class = old } }, "machine 1: class 99"},
		{"fp.dirty", func() func() { s.fp[1].dirty = true; return func() { s.fp[1].dirty = false } }, "dirty list"},
		{"dirty", func() func() { s.dirty = append(s.dirty, 1); return func() { s.dirty = s.dirty[:0] } }, "dirty list"},
		{"classes.members", func() func() {
			c := s.fp[0].class
			old := s.classes.members[c]
			s.classes.members[c] = append(slices.Clone(old), 1)
			return func() { s.classes.members[c] = old }
		}, "members listed"},
		// Machine 1 moved into machine 0's class, listed ahead of it: every
		// count still matches, only the order is wrong.
		{"classes.members order", func() func() {
			m, c0, c1 := s.classes.members, s.fp[0].class, s.fp[1].class
			old0, old1 := m[c0], m[c1]
			s.fp[1].class = c0
			m[c0], m[c1] = append([]int32{1}, old0...), slices.DeleteFunc(slices.Clone(old1), func(x int32) bool { return x == 1 })
			return func() { s.fp[1].class, m[c0], m[c1] = c1, old0, old1 }
		}, "not the ascending list"},
		{"classes.ids", func() func() {
			name := s.classes.names[s.fp[0].class]
			s.classes.ids[name] = s.fp[3].class // a dgx1's: never machine 0's
			return func() { s.classes.ids[name] = s.fp[0].class }
		}, "interned as class"},
		{"classes.names", func() func() {
			c, old := s.fp[2].class, s.classes.names[s.fp[2].class]
			s.classes.names[c] = "x"
			return func() { s.classes.names[c] = old }
		}, "interned as class"},
		{"classes.free", func() func() {
			s.classes.free = append(s.classes.free, s.fp[0].class)
			return func() { s.classes.free = s.classes.free[:len(s.classes.free)-1] }
		}, "on the free list"},
		{"residents.GPUs", func() func() { s.residents[3][0].GPUs++; return func() { s.residents[3][0].GPUs-- } }, "resident GPU count"},
		{"owner", func() func() {
			pos := s.slots[0].GPUs[0]
			s.owner[pos] = 1
			return func() { s.owner[pos] = 0 }
		}, "owned by slot 1"},
		{"slots", func() func() { s.slots[2].Slot = 3; return func() { s.slots[2].Slot = 2 } }, "names slot 3"},
		{"ids", func() func() {
			id := s.slots[1].JobID
			s.ids[id] = 4
			return func() { s.ids[id] = 1 }
		}, "ID map puts at slot 4"},
		{"freeSlots", func() func() {
			s.freeSlots = append(s.freeSlots, 5)
			return func() { s.freeSlots = s.freeSlots[:len(s.freeSlots)-1] }
		}, "on the free list"},
		// A job a trial released keeps its ID-map entry until Commit.
		{"ids inside a trial", func() func() {
			if err := s.Mark(); err != nil {
				t.Fatal(err)
			}
			id := s.slots[3].JobID
			if err := s.ReleaseSlot(3); err != nil {
				t.Fatal(err)
			}
			delete(s.ids, id)
			return func() {
				s.ids[id] = 3
				s.Rollback()
			}
		}, "which the ID map no longer holds"},
		// A slot a trial emptied is free like any other: off the free list,
		// no Allocate could take it.
		{"freeSlots inside a trial", func() func() {
			if err := s.Mark(); err != nil {
				t.Fatal(err)
			}
			if err := s.ReleaseSlot(3); err != nil {
				t.Fatal(err)
			}
			s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
			return func() {
				s.freeSlots = append(s.freeSlots, 3)
				s.Rollback()
			}
		}, "not on the free list"},
		// A what-if that forgot its Rollback.
		{"trial", func() func() {
			if err := s.Mark(); err != nil {
				t.Fatal(err)
			}
			return s.Rollback
		}, "trial is open"},
	} {
		restore := tc.corrupt()
		err := s.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("corrupted %s: CheckInvariants = %v, want an error naming %q", tc.table, err, tc.want)
		}
		restore()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("restored %s: %v", tc.table, err)
		}
	}
}
