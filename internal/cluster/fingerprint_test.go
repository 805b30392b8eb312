package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/topology"
)

func dedupSorted(gpus []int) []int {
	sort.Ints(gpus)
	out := gpus[:0]
	for i, g := range gpus {
		if i == 0 || g != gpus[i-1] {
			out = append(out, g)
		}
	}
	return out
}

func jobClass(op int) jobgraph.BatchClass { return jobgraph.ClassOfSize(1 << (op % 8)) }

func jobName(n int) string { return fmt.Sprintf("fz%04d", n) }

func fpState(t *testing.T, mix string) *State {
	t.Helper()
	specs, err := topology.ParseMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.HeterogeneousCluster(specs)
	if err != nil {
		t.Fatal(err)
	}
	return NewState(topo)
}

// replayFingerprints rebuilds s's allocations on a fresh state and
// returns its fingerprints — the from-scratch answer the incrementally
// maintained one must always match.
func replayFingerprints(t *testing.T, s *State) []string {
	t.Helper()
	fresh := NewState(s.Topology())
	for _, id := range s.Jobs() {
		a := s.Allocation(id)
		if err := fresh.Allocate(id, a.GPUs, a.Bandwidth, a.Traits); err != nil {
			t.Fatalf("replaying %s: %v", id, err)
		}
	}
	out := make([]string, s.Topology().NumMachines())
	for m := range out {
		out[m] = fresh.MachineFingerprint(m)
	}
	return out
}

func checkFingerprints(t *testing.T, s *State, context string) {
	t.Helper()
	want := replayFingerprints(t, s)
	for m := range want {
		if got := s.MachineFingerprint(m); got != want[m] {
			t.Fatalf("%s: machine %d incremental fingerprint diverged from scratch recompute\n inc:     %q\n scratch: %q",
				context, m, got, want[m])
		}
	}
}

// fingerprintFmt is State.fingerprint as it was written before the
// resident table: a fmt verb per field, and the machine's jobs found by
// scanning its owners and matching sockets GPU by GPU. Fingerprints key
// the candidate sweep's class fold, so the strconv formatter has to
// reproduce these bytes exactly.
func fingerprintFmt(s *State, m int) string {
	var sb strings.Builder
	sb.WriteString(s.topo.MachineShape(m))
	free := s.FreeGPUsOnMachine(m)
	fmt.Fprintf(&sb, "|f%d", len(free))
	for i, a := range free {
		for _, b := range free[i+1:] {
			fmt.Fprintf(&sb, ",%g", s.topo.Distance(a, b))
		}
	}
	sb.WriteString(";s")
	for _, pos := range free {
		nd := s.topo.GPU(pos)
		fmt.Fprintf(&sb, ",%d", len(s.topo.GPUsOfSocket(nd.Machine, nd.Socket)))
	}
	sb.WriteString(";r")
	for _, pos := range free {
		fmt.Fprintf(&sb, ",%g", s.topo.RootDistance(pos))
	}
	var ids []string
	for _, pos := range s.topo.GPUsOfMachine(m) {
		ids = append(ids, s.Owner(pos))
	}
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		if id == "" {
			continue
		}
		alloc := s.Allocation(id)
		t := alloc.Traits
		fmt.Fprintf(&sb, ";j%d.%d.%d.%d:", int(t.Model), int(t.Class), t.GPUs, int(t.Mode))
		for _, pos := range free {
			share := byte('0')
			for _, og := range alloc.GPUs {
				if s.topo.SameSocket(pos, og) {
					share = '1'
					break
				}
			}
			sb.WriteByte(share)
		}
	}
	return sb.String()
}

// checkFingerprintBytes holds every machine's fingerprint to the fmt
// formatter's.
func checkFingerprintBytes(t *testing.T, s *State, context string) {
	t.Helper()
	for m := 0; m < s.Topology().NumMachines(); m++ {
		if got, want := s.MachineFingerprint(m), fingerprintFmt(s, m); got != want {
			t.Fatalf("%s: machine %d fingerprint bytes changed\n now:  %q\n was:  %q", context, m, got, want)
		}
	}
}

// checkClassPairs holds MachineClass to the fingerprints it numbers: two
// machines share a class exactly when the fmt formatter writes the same
// fingerprint for both.
func checkClassPairs(t *testing.T, s *State, context string) {
	t.Helper()
	n := s.Topology().NumMachines()
	fps := make([]string, n)
	for m := range fps {
		fps[m] = fingerprintFmt(s, m)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if ca, cb := s.MachineClass(a), s.MachineClass(b); (ca == cb) != (fps[a] == fps[b]) {
				t.Fatalf("%s: machines %d and %d have classes %d and %d, fingerprints equal: %t", context, a, b, ca, cb, fps[a] == fps[b])
			}
		}
	}
}

// TestClassIDsStayDense drives 100 000 random allocations and releases
// over a mixed fleet, reading one random machine's class after about one
// in four, so that several dirty machines hold their old ids until a
// drain recomputes them together, and demands the id space never exceed
// NumMachines()+1: emptied member lists and the free list recycle every
// id a recompute lets go of, however many fingerprints pass by.
func TestClassIDsStayDense(t *testing.T) {
	s := fpState(t, "minsky:3+minsky-1g:1+dgx1:2+dgx1-2g:1+pcie:1")
	n := s.Topology().NumMachines()
	rng := rand.New(rand.NewSource(7))
	seen := map[string]bool{}
	for op := 0; op < 100_000; op++ {
		if rng.Intn(2) == 0 {
			randomAllocate(t, rng, s, jobName(op))
		} else {
			randomRelease(t, rng, s)
		}
		if rng.Intn(4) == 0 {
			seen[s.MachineFingerprint(rng.Intn(n))] = true
		}
		if len(s.classes.names) > n+1 {
			t.Fatalf("op %d: %d class ids on %d machines", op, len(s.classes.names), n)
		}
		if op%10_000 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if len(seen) < 10*(n+1) {
		t.Fatalf("only %d distinct fingerprints went by: the bound was never under pressure", len(seen))
	}
}

// TestMachineClassAllocatesNothing: reading a class with nothing dirty,
// recomputing a dirty machine to a fingerprint already interned — held by
// a twin machine, or by the machine itself — and moving a machine between
// two live classes' member lists and back allocate nothing.
func TestMachineClassAllocatesNothing(t *testing.T) {
	s := fpState(t, "minsky:4")
	tr := perfmodel.Traits{Model: perfmodel.AlexNet, Class: 1, GPUs: 1, Mode: perfmodel.DataParallel}
	// Machines 2 and 3 hold one twin job each: two classes of two.
	if err := s.Allocate("a", []int{8}, 1, tr); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocate("b", []int{12}, 1, tr); err != nil {
		t.Fatal(err)
	}
	s.Classes()
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"clean", func() { s.MachineClass(0) }},
		{"recompute to a twin's class", func() { s.touch(0); s.MachineClass(0) }},
		{"recompute to its own class", func() { s.touch(2); s.MachineClass(2) }},
		{"move to the empty class and back", func() {
			if err := s.Mark(); err != nil {
				t.Fatal(err)
			}
			if err := s.Release("a"); err != nil {
				t.Fatal(err)
			}
			if s.MachineClass(2) != s.MachineClass(0) {
				t.Fatal("an emptied machine 2 is not in the empty machines' class")
			}
			s.Rollback()
			if s.MachineClass(2) != s.MachineClass(3) {
				t.Fatal("machine 2 did not move back beside its twin")
			}
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.run); n != 0 {
			t.Errorf("%s: MachineClass allocates %v objects", tc.name, n)
		}
	}
}

// TestFullMachinesLeaveTheIndex: a machine with no free GPU can take no
// job, so the drain takes it out of the class index instead of
// recomputing it; a MachineClass read lists it again, under the class it
// shares with an identically full twin, and freeing a GPU brings it back
// for good.
func TestFullMachinesLeaveTheIndex(t *testing.T) {
	s := fpState(t, "minsky:3")
	s.Classes()
	tr := perfmodel.Traits{Model: perfmodel.AlexNet, Class: 1, GPUs: 4, Mode: perfmodel.DataParallel}
	for i, m := range []int{1, 2} {
		if err := s.Allocate(jobName(i), s.FreeGPUsOnMachine(m), 1, tr); err != nil {
			t.Fatal(err)
		}
	}
	listed := func() []int32 {
		var out []int32
		for _, ms := range s.Classes() {
			out = append(out, ms...)
		}
		slices.Sort(out)
		return out
	}
	check := func(want []int32, context string) {
		t.Helper()
		if got := listed(); !slices.Equal(got, want) {
			t.Fatalf("%s: index lists machines %v, want %v", context, got, want)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", context, err)
		}
	}
	check([]int32{0}, "machines 1 and 2 full")
	if s.MachineClass(1) != s.MachineClass(2) || s.MachineClass(1) == s.MachineClass(0) {
		t.Fatal("two identically full machines read as different classes, or as the empty one's")
	}
	check([]int32{0, 1, 2}, "full machines read")
	if err := s.Release(jobName(0)); err != nil {
		t.Fatal(err)
	}
	check([]int32{0, 1, 2}, "machine 1 freed")
	if s.MachineClass(1) != s.MachineClass(0) {
		t.Fatal("freed machine 1 is not in the empty machines' class")
	}
}

func TestFingerprintBytesUnchanged(t *testing.T) {
	fleets := map[string]*State{
		"bare minsky": NewState(topology.Power8Minsky()), // no network root
		"bare dgx1":   NewState(topology.DGX1()),
	}
	for _, mix := range []string{"pcie:1", "minsky:2+minsky-1g:1+dgx1:1", "dgx1-2g:2+pcie:2"} {
		fleets[mix] = fpState(t, mix)
	}
	for name, s := range fleets {
		rng := rand.New(rand.NewSource(int64(len(name))))
		checkFingerprintBytes(t, s, name+" empty")
		for step := 0; step < 150; step++ {
			if rng.Intn(3) > 0 {
				randomAllocate(t, rng, s, jobName(step))
			} else {
				randomRelease(t, rng, s)
			}
			checkFingerprintBytes(t, s, fmt.Sprintf("%s step %d", name, step))
		}
	}
}

// TestFingerprintTokensFallBack: a fleet of all three machine kinds has
// more distinct distances than the state's token table holds, so once the
// empty machines have filled it, fingerprint formats the rest with
// strconv on every call; the bytes stay the fmt formatter's throughout.
func TestFingerprintTokensFallBack(t *testing.T) {
	s := fpState(t, "minsky:1+dgx1:1+pcie:1")
	topo := s.Topology()
	distinct := map[uint64]bool{}
	for m := 0; m < topo.NumMachines(); m++ {
		gpus := topo.GPUsOfMachine(m)
		for i, a := range gpus {
			distinct[math.Float64bits(topo.RootDistance(a))] = true
			for _, c := range gpus[i+1:] {
				distinct[math.Float64bits(topo.Distance(a, c))] = true
			}
		}
	}
	if len(distinct) <= fpTokenSlots {
		t.Fatalf("setup: %d distinct distances fit the %d-slot token table", len(distinct), fpTokenSlots)
	}
	// Every distance of an empty fleet is in some fingerprint.
	checkFingerprintBytes(t, s, "empty")
	if s.fpTok.n != fpTokenSlots {
		t.Fatalf("%d tokens held after %d distinct distances, want the table full at %d", s.fpTok.n, len(distinct), fpTokenSlots)
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 150; step++ {
		if rng.Intn(3) > 0 {
			randomAllocate(t, rng, s, jobName(step))
		} else {
			randomRelease(t, rng, s)
		}
		checkFingerprintBytes(t, s, fmt.Sprintf("step %d", step))
	}
}

func TestMachineFingerprintIncremental(t *testing.T) {
	s := fpState(t, "minsky:2+minsky-1g:1+dgx1:1")
	tr := perfmodel.Traits{Model: perfmodel.AlexNet, Class: 1, GPUs: 2, Mode: perfmodel.DataParallel}

	// Force the lazy build before any mutation so the dirty-marking path
	// (not just first-touch recomputation) is what the test exercises.
	for m := 0; m < s.Topology().NumMachines(); m++ {
		s.MachineFingerprint(m)
	}

	if err := s.Allocate("a", []int{0, 1}, 1, tr); err != nil {
		t.Fatal(err)
	}
	checkFingerprints(t, s, "after first allocate")

	// A job spanning machines dirties each of them.
	g2 := s.Topology().GPUsOfMachine(2)
	g3 := s.Topology().GPUsOfMachine(3)
	if err := s.Allocate("wide", []int{g2[0], g3[0]}, 1, tr); err != nil {
		t.Fatal(err)
	}
	checkFingerprints(t, s, "after cross-machine allocate")

	if err := s.Release("a"); err != nil {
		t.Fatal(err)
	}
	checkFingerprints(t, s, "after release")

	// An untouched machine's fingerprint must be recomputation-stable.
	before := s.MachineFingerprint(1)
	if err := s.Allocate("b", []int{g3[1]}, 1, tr); err != nil {
		t.Fatal(err)
	}
	if got := s.MachineFingerprint(1); got != before {
		t.Fatalf("machine 1 fingerprint moved without a local change:\n%q\n%q", before, got)
	}
}

func TestFingerprintCloneAndCopyFrom(t *testing.T) {
	s := fpState(t, "minsky:2")
	tr := perfmodel.Traits{Model: perfmodel.GoogLeNet, Class: 2, GPUs: 2, Mode: perfmodel.DataParallel}
	if err := s.Allocate("a", []int{0, 1}, 1, tr); err != nil {
		t.Fatal(err)
	}
	s.MachineFingerprint(0)

	c := s.Clone()
	for m := 0; m < 2; m++ {
		if c.MachineFingerprint(m) != s.MachineFingerprint(m) {
			t.Fatalf("clone fingerprint differs on machine %d", m)
		}
	}
	// Mutating the clone must not leak into the source.
	if err := c.Release("a"); err != nil {
		t.Fatal(err)
	}
	checkFingerprints(t, c, "mutated clone")
	checkFingerprints(t, s, "source after clone mutation")

	// CopyFrom resets the clone back to the source, fingerprints included.
	c.CopyFrom(s)
	if c.FragSum() != s.FragSum() || c.FreeGPUCount() != s.FreeGPUCount() {
		t.Fatal("CopyFrom missed scalar state")
	}
	checkFingerprints(t, c, "after CopyFrom")
	if err := c.Release("a"); err != nil {
		t.Fatal(err)
	}
	if s.Allocation("a") == nil {
		t.Fatal("CopyFrom shared mutable allocation bookkeeping with the source")
	}
	checkFingerprints(t, s, "source after CopyFrom+mutation")
}

// FuzzShapeFingerprint drives random allocate/release sequences over
// mixed (healthy, degraded, heterogeneous) fleets and checks the
// fingerprint soundness invariant: the incrementally maintained
// fingerprint of every machine always equals the from-scratch
// fingerprint of a fresh state holding the same allocations. A
// divergence here is exactly a candidate-sweep correctness bug — two
// machines folded into one class that the mapper would score apart. An op
// with both high bits set runs a trial that must roll back exactly
// (trialRoundTrip) instead of a release.
func FuzzShapeFingerprint(f *testing.F) {
	f.Add("minsky:2+minsky-1g:1+dgx1:1", []byte{0, 2, 1, 3, 0x80, 7, 0, 1})
	f.Add("minsky:3", []byte{4, 4, 4, 0x81})
	f.Add("dgx1-2g:2+pcie:1", []byte{9, 0, 0x80, 3, 3})
	f.Add("minsky:2+minsky-1g:1+dgx1:1", []byte{0x41, 0x46, 0x80, 0x45, 0x81, 2, 0x4a, 0x82, 0x40})
	f.Add("dgx1-1g:1+minsky:1", []byte{1, 0x45, 2, 7, 0xeb, 0x42, 0xff, 0x80, 0xd5})
	// Release fz0000, so fz0002 takes its slot — a later ID in a lower
	// slot — then release both of the others inside a trial.
	f.Add("minsky:2", []byte{0, 5, 0x80, 9, 0xc3, 0x80, 0xc1})
	f.Fuzz(func(t *testing.T, mix string, ops []byte) {
		specs, err := topology.ParseMix(mix)
		if err != nil {
			t.Skip()
		}
		machines := 0
		for _, sp := range specs {
			machines += sp.Count
		}
		if machines == 0 || machines > 8 {
			t.Skip()
		}
		topo, err := topology.HeterogeneousCluster(specs)
		if err != nil {
			t.Skip()
		}
		s := NewState(topo)
		for m := 0; m < topo.NumMachines(); m++ {
			s.MachineFingerprint(m) // build eagerly; mutations must dirty correctly
		}
		next := 0
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			if op&0xc0 == 0xc0 {
				// A trial instead of a release: release the jobs whose index
				// picks a set bit of the low six (highest index first, so the
				// lower ones stay put), allocate, place the last released job
				// again; roll back, then commit.
				var steps []trialStep
				for k := 5; k >= 0; k-- {
					if op>>k&1 != 0 {
						steps = append(steps, trialStep{kind: 0, n: k})
					}
				}
				steps = append(steps, trialStep{kind: 1, n: int(op)}, trialStep{kind: 2, n: int(op) / 2})
				trialRoundTrip(t, s, steps, fmt.Sprintf("op %d", i))
				continue
			}
			if op&0x80 != 0 {
				// Release the job selected by the low bits, if any.
				ids := s.Jobs()
				if len(ids) == 0 {
					continue
				}
				if err := s.Release(ids[int(op&0x7f)%len(ids)]); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// Allocate 1-3 GPUs starting at a free-list offset, with traits
			// derived from the op byte so resident blocks vary.
			free := s.FreeGPUs()
			if len(free) == 0 {
				continue
			}
			n := 1 + int(op)%3
			if n > len(free) {
				n = len(free)
			}
			start := (int(op) / 3) % len(free)
			gpus := make([]int, 0, n)
			for k := 0; k < n; k++ {
				gpus = append(gpus, free[(start+k*2)%len(free)])
			}
			gpus = dedupSorted(gpus)
			tr := perfmodel.Traits{
				Model: perfmodel.NN(int(op) % 3),
				Class: jobClass(int(op)),
				GPUs:  len(gpus),
				Mode:  perfmodel.Parallelism(int(op/16) % 2),
			}
			id := jobName(next)
			next++
			if err := s.Allocate(id, gpus, float64(int(op)%5), tr); err != nil {
				t.Fatal(err)
			}
			if op&0x40 != 0 {
				// Some ops read every class, so recomputes meet stale
				// machines still holding old ids.
				checkClassPairs(t, s, fmt.Sprintf("after op %d", i))
			}
		}
		want := replayFingerprints(t, s)
		for m := range want {
			if got := s.MachineFingerprint(m); got != want[m] {
				t.Fatalf("machine %d: incremental %q != scratch %q", m, got, want[m])
			}
		}
		checkFingerprintBytes(t, s, "after the op sequence")
		checkClassPairs(t, s, "after the op sequence")
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
