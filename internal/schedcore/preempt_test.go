package schedcore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/job"
	"gputopo/internal/topology"
)

func mkPrioJob(id string, gpus, prio int, arrival float64) *job.Job {
	j := mkJob(id, 1, gpus, 0, arrival)
	j.Priority = prio
	return j
}

// placedIDs extracts the IDs of the placed decisions, in order.
func placedIDs(decs []*Decision) []string {
	var ids []string
	for _, d := range decs {
		if !d.Postponed {
			ids = append(ids, d.Job.ID)
		}
	}
	return ids
}

func TestPriorityDisciplineOrdersQueue(t *testing.T) {
	s := newSchedWith(t, FCFS, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	_ = s.Submit(mkPrioJob("low-early", 1, 0, 1))
	_ = s.Submit(mkPrioJob("high-late", 1, 1, 10))
	_ = s.Submit(mkPrioJob("high-early", 1, 1, 5))
	q := s.Queued()
	if q[0].ID != "high-early" || q[1].ID != "high-late" || q[2].ID != "low-early" {
		t.Fatalf("priority queue order: %v %v %v", q[0].ID, q[1].ID, q[2].ID)
	}
	if s.disc.Name() != "priority-arrival" {
		t.Fatalf("discipline name %q", s.disc.Name())
	}
}

func TestPreemptionEvictsYoungestLowerPriority(t *testing.T) {
	s := newSchedWith(t, TopoAwareP, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	_ = s.Submit(mkPrioJob("low1", 2, 0, 0))
	_ = s.Submit(mkPrioJob("low2", 2, 0, 1))
	if ids := placedIDs(s.Schedule()); len(ids) != 2 {
		t.Fatalf("setup placements: %v", ids)
	}

	_ = s.Submit(mkPrioJob("high", 2, 1, 2))
	decs := s.Schedule()
	if ids := placedIDs(decs); len(ids) != 1 || ids[0] != "high" {
		t.Fatalf("expected preemptive placement of high, got %v", ids)
	}
	var evs []Eviction
	for _, d := range decs {
		if d.Job.ID == "high" {
			evs = d.Evictions
		}
	}
	// Victim order prefers the youngest job inside the lowest tier: low2
	// loses less progress than low1.
	if len(evs) != 1 || evs[0].Job.ID != "low2" || len(evs[0].GPUs) != 2 {
		t.Fatalf("evictions: %+v", evs)
	}
	if st := s.Stats(); st.Preemptions != 1 || st.Evictions != 1 {
		t.Fatalf("stats: preemptions=%d evictions=%d", st.Preemptions, st.Evictions)
	}
	// The victim is back in the queue; the preemptor and survivor run.
	if q := s.Queued(); len(q) != 1 || q[0].ID != "low2" {
		t.Fatalf("queue after eviction: %v", q)
	}
	if run := s.Running(); len(run) != 2 || run[0] != "high" || run[1] != "low1" {
		t.Fatalf("running after eviction: %v", run)
	}

	// When the preemptor finishes, the victim resumes on the freed GPUs.
	if err := s.Release("high"); err != nil {
		t.Fatal(err)
	}
	if ids := placedIDs(s.Schedule()); len(ids) != 1 || ids[0] != "low2" {
		t.Fatalf("victim not re-placed: %v", ids)
	}
}

func TestPreemptionOffPostpones(t *testing.T) {
	s := newSchedWith(t, TopoAwareP, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	_ = s.Submit(mkPrioJob("low1", 2, 0, 0))
	_ = s.Submit(mkPrioJob("low2", 2, 0, 1))
	_ = s.Schedule()
	_ = s.Submit(mkPrioJob("high", 2, 1, 2))
	decs := s.Schedule()
	if ids := placedIDs(decs); len(ids) != 0 {
		t.Fatalf("placements with preemption off: %v", ids)
	}
	if st := s.Stats(); st.Preemptions != 0 || st.Evictions != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPreemptionEvictsLowestTierFirst(t *testing.T) {
	s := newSchedWith(t, TopoAwareP, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	// prio-1 arrived later than prio-0: tier must beat recency.
	_ = s.Submit(mkPrioJob("tier0", 2, 0, 0))
	_ = s.Submit(mkPrioJob("tier1", 2, 1, 5))
	_ = s.Schedule()
	_ = s.Submit(mkPrioJob("top", 2, 2, 6))
	decs := s.Schedule()
	if ids := placedIDs(decs); len(ids) != 1 || ids[0] != "top" {
		t.Fatalf("expected top placed, got %v", ids)
	}
	for _, d := range decs {
		if d.Job.ID == "top" {
			if len(d.Evictions) != 1 || d.Evictions[0].Job.ID != "tier0" {
				t.Fatalf("expected tier0 evicted, got %+v", d.Evictions)
			}
		}
	}
}

func TestPreemptionNeverEvictsEqualPriority(t *testing.T) {
	s := newSchedWith(t, TopoAwareP, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	_ = s.Submit(mkPrioJob("a", 2, 1, 0))
	_ = s.Submit(mkPrioJob("b", 2, 1, 1))
	_ = s.Schedule()
	_ = s.Submit(mkPrioJob("c", 2, 1, 2))
	if ids := placedIDs(s.Schedule()); len(ids) != 0 {
		t.Fatalf("equal-priority eviction happened: %v", ids)
	}
	if st := s.Stats(); st.Preemptions != 0 {
		t.Fatalf("preemptions: %d", st.Preemptions)
	}
}

func TestZeroPriorityNeverPreempts(t *testing.T) {
	// Preemption enabled, but the arriving job has the default priority 0:
	// it must park/postpone like before — only positive priorities are
	// eligible, which is also what keeps the wake-up index sound.
	s := newSchedWith(t, TopoAwareP, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	_ = s.Submit(mkPrioJob("a", 2, 0, 0))
	_ = s.Submit(mkPrioJob("b", 2, 0, 1))
	_ = s.Schedule()
	_ = s.Submit(mkPrioJob("c", 2, 0, 2))
	if ids := placedIDs(s.Schedule()); len(ids) != 0 {
		t.Fatalf("zero-priority job preempted: %v", ids)
	}
}

func TestPreemptionGreedyVictimPrefix(t *testing.T) {
	// Machine holds a 2-GPU job and two 1-GPU jobs; a high-priority 2-GPU
	// arrival needs 2 GPUs freed.
	s := newSchedWith(t, TopoAwareP, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	_ = s.Submit(mkPrioJob("pair", 2, 0, 0))
	_ = s.Submit(mkPrioJob("solo1", 1, 0, 1))
	_ = s.Submit(mkPrioJob("solo2", 1, 0, 2))
	if ids := placedIDs(s.Schedule()); len(ids) != 3 {
		t.Fatalf("setup placements: %v", ids)
	}
	_ = s.Submit(mkPrioJob("high", 2, 1, 3))
	decs := s.Schedule()
	var evs []Eviction
	for _, d := range decs {
		if d.Job.ID == "high" && !d.Postponed {
			evs = d.Evictions
		}
	}
	// The per-machine greedy walks candidates youngest-first and stops at
	// the first prefix that frees enough GPUs: [solo2, solo1] frees 2, so
	// the pair job — oldest, most progress to lose — survives.
	if len(evs) != 2 || evs[0].Job.ID != "solo2" || evs[1].Job.ID != "solo1" {
		t.Fatalf("victim set: %+v", evs)
	}
}

func TestPreemptionMultiNode(t *testing.T) {
	// A 6-GPU multi-node job on a full 2×Minsky cluster must evict across
	// machines via the cluster-wide greedy.
	topo := topology.Cluster(2, topology.KindMinsky)
	s := newSchedWith(t, TopoAwareP, topo, WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	for i, id := range []string{"a", "b", "c", "d"} {
		_ = s.Submit(mkPrioJob(id, 2, 0, float64(i)))
	}
	if ids := placedIDs(s.Schedule()); len(ids) != 4 {
		t.Fatalf("setup placements: %v", ids)
	}
	big := mkPrioJob("big", 6, 1, 10)
	big.SingleNode = false
	_ = s.Submit(big)
	decs := s.Schedule()
	var placed bool
	for _, d := range decs {
		if d.Job.ID == "big" && !d.Postponed {
			placed = true
			if len(d.Evictions) != 3 {
				t.Fatalf("multi-node evictions: %+v", d.Evictions)
			}
		}
	}
	if !placed {
		t.Fatal("multi-node preemption did not place")
	}
	if st := s.Stats(); st.Preemptions != 1 || st.Evictions != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func jobID(i int) string {
	return string([]byte{'j', byte('a' + i/26), byte('a' + i%26)})
}

// TestVictimSearchAllocs pins what one preempt-and-restore cycle on a
// full 16-machine fleet allocates: victimCycleAllocs objects — the
// decision records, the placement each proposal's trial scored, the
// eviction list, queue churn and the victim's re-placement. Every machine
// proposes a set, and each is scored inside a trial on the live state, so
// no proposal copies the cluster; a copy per proposal costs more than 60
// objects each (owner slice, maps, per-allocation copies). Under -race
// the bound is a ceiling: the race detector drops the mapper's pooled
// scratch at random.
func TestVictimSearchAllocs(t *testing.T) {
	topo := topology.Cluster(16, topology.KindMinsky)
	s := newSchedWith(t, TopoAwareP, topo, WithQueueDiscipline(PriorityThenArrival()))
	s.SetPreemption(true)
	// Fill the cluster with low-priority 4-GPU jobs so any arrival must
	// preempt and the victim search walks all 16 machine proposals.
	for i := 0; i < 16; i++ {
		if err := s.Submit(mkPrioJob(jobID(i), 4, 0, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if ids := placedIDs(s.Schedule()); len(ids) != 16 {
		t.Fatalf("setup placed %d jobs", len(ids))
	}

	n := 0
	avg := testing.AllocsPerRun(20, func() {
		hi := mkPrioJob("hi", 4, 1, 100)
		if err := s.Submit(hi); err != nil {
			t.Fatal(err)
		}
		decs := s.Schedule()
		var victim string
		for _, d := range decs {
			if d.Job.ID == "hi" && len(d.Evictions) > 0 {
				victim = d.Evictions[0].Job.ID
			}
		}
		if victim == "" {
			t.Fatal("expected a preemptive placement")
		}
		// Undo: release the high-priority job; the victim re-places on
		// the freed capacity, restoring the all-full steady state.
		if err := s.Release("hi"); err != nil {
			t.Fatal(err)
		}
		if ids := placedIDs(s.Schedule()); len(ids) != 1 {
			t.Fatalf("victim did not re-place: %v", ids)
		}
		n++
	})
	if raceEnabled && avg > victimCycleAllocs || !raceEnabled && avg != victimCycleAllocs {
		t.Fatalf("preemption cycle allocates %v objects, want %d (a ceiling under -race)", avg, victimCycleAllocs)
	}
}

// selectVictimsNaive is the victim search as it stood before the victim
// index, kept as the reference selectVictims is held to: every
// lower-priority running job sorted cluster-wide, then each machine asking
// every candidate how many GPUs it holds there. Only evaluate differs from
// the old body — a fresh Clone and a throwaway placer per candidate set, so
// the reference shares no scratch with what it checks.
func (c *Core) selectVictimsNaive(j *job.Job) ([]*job.Job, float64) {
	cands := make([]*job.Job, 0, len(c.running))
	for _, v := range c.running {
		if v != nil && v.Priority < j.Priority {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return nil, 0
	}
	slices.SortFunc(cands, victimOrder)

	type scored struct {
		victims []*job.Job
		maxPrio int
		utility float64
		machine int
	}
	var best *scored
	better := func(s, b *scored) bool {
		if s.maxPrio != b.maxPrio {
			return s.maxPrio < b.maxPrio
		}
		if len(s.victims) != len(b.victims) {
			return len(s.victims) < len(b.victims)
		}
		if s.utility != b.utility {
			return s.utility > b.utility
		}
		return s.machine < b.machine
	}
	evaluate := func(victims []*job.Job, machine int) {
		cs := c.state.Clone()
		for _, v := range victims {
			if err := cs.Release(v.ID); err != nil {
				panic(fmt.Sprintf("schedcore: evaluating eviction of %s: %v", v.ID, err))
			}
		}
		p := placer{policy: c.policy, state: cs, mapper: c.place.mapper}
		placement, _ := p.attempt(j)
		if placement == nil {
			return
		}
		s := &scored{victims: victims, maxPrio: victims[0].Priority, utility: placement.Utility, machine: machine}
		for _, v := range victims {
			if v.Priority > s.maxPrio {
				s.maxPrio = v.Priority
			}
		}
		if best == nil || better(s, best) {
			best = s
		}
	}

	if j.SingleNode {
		topo := c.state.Topology()
		gpuCountOn := func(v *job.Job, m int) int {
			n := 0
			for _, pos := range c.state.Allocation(v.ID).GPUs {
				if topo.MachineOf(pos) == m {
					n++
				}
			}
			return n
		}
		for m := 0; m < topo.NumMachines(); m++ {
			freed := c.state.FreeCountOnMachine(m)
			if freed >= j.GPUs {
				continue
			}
			var set []*job.Job
			for _, v := range cands {
				n := gpuCountOn(v, m)
				if n == 0 {
					continue
				}
				set = append(set, v)
				freed += n
				if freed >= j.GPUs {
					evaluate(slices.Clone(set), m)
					break
				}
			}
		}
	} else {
		freed := c.state.FreeGPUCount()
		var set []*job.Job
		for _, v := range cands {
			set = append(set, v)
			freed += len(c.state.Allocation(v.ID).GPUs)
			if freed >= j.GPUs {
				evaluate(slices.Clone(set), -1)
				break
			}
		}
	}
	if best == nil {
		return nil, 0
	}
	return best.victims, best.utility
}

func ids(js []*job.Job) []string {
	out := make([]string, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}

// runningIDs names the running jobs in the slots, in order.
func (c *Core) runningIDs(slots []int32) []string {
	out := make([]string, len(slots))
	for i, slot := range slots {
		out[i] = c.running[slot].ID
	}
	return out
}

// TestSelectVictimsMatchesNaive holds the indexed victim search to the
// old enumeration: random mixed-kind fleets filled to 70–100 % through
// Restore with priorities 0/1/2 — one job in five spanning machines — and
// single- and multi-node preemptors of priority 1 and 2 under every
// policy. Winning victim list (in eviction order) and the utility of the
// placement its trial scored must equal the naive search's, which scores
// on clones, on every draw, and the state must pass CheckInvariants after
// the search; the coverage counters keep the population honest.
func TestSelectVictimsMatchesNaive(t *testing.T) {
	mixes := []string{"minsky:2+dgx1:1+pcie:2", "minsky:3+pcie:3", "dgx1:2+minsky-1g:2", "pcie:2+dgx1:1+minsky:1+minsky-2g:1"}
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	var draws, found, spanning, multiVictim, multiNodeFound int
	for mi, mix := range mixes {
		specs, err := topology.ParseMix(mix)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := topology.HeterogeneousCluster(specs)
		if err != nil {
			t.Fatal(err)
		}
		mapper := mapperUpTo(t, topo, 8)
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(1000*mi + seed)))
			c := New(AllPolicies()[seed%4], cluster.NewState(topo), mapper, WithQueueDiscipline(PriorityThenArrival()))
			c.SetPreemption(true)
			target := topo.NumGPUs() * (70 + rng.Intn(31)) / 100
			for n := 0; topo.NumGPUs()-c.state.FreeGPUCount() < target; n++ {
				free := c.state.FreeGPUs()
				first := free[rng.Intn(len(free))]
				gpus := c.state.FreeGPUsOnMachine(topo.MachineOf(first))
				if rng.Intn(5) == 0 {
					gpus = free // anywhere: the job may span machines
				}
				rng.Shuffle(len(gpus), func(i, k int) { gpus[i], gpus[k] = gpus[k], gpus[i] })
				gpus = gpus[:min(1+rng.Intn(4), len(gpus))]
				// Few distinct arrivals, so victimOrder reaches its ID tie-break.
				v := mkPrioJob(fmt.Sprintf("r%03d", n), len(gpus), rng.Intn(3), float64(rng.Intn(6)))
				if err := c.Restore(v, gpus, float64(rng.Intn(3))); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 12; k++ {
				j := mkPrioJob("hi", 1+rng.Intn(4), 1+rng.Intn(2), 100)
				if k%3 == 2 {
					j = mkPrioJob("wide", 2+rng.Intn(7), 1+rng.Intn(2), 100)
					j.SingleNode = false
				}
				wantV, wantU := c.selectVictimsNaive(j)
				gotV, gotP, err := c.selectVictims(j)
				if err != nil {
					t.Fatal(err)
				}
				gotU := 0.0
				if gotP != nil {
					gotU = gotP.Utility
				}
				if !slices.Equal(c.runningIDs(gotV), ids(wantV)) || gotU != wantU || (gotP == nil) != (wantV == nil) {
					t.Fatalf("%s seed %d %s: %s (%d GPUs, priority %d, single-node %v): victims %v utility %v, the naive search gives %v utility %v",
						mix, seed, c.policy, j.ID, j.GPUs, j.Priority, j.SingleNode, c.runningIDs(gotV), gotU, ids(wantV), wantU)
				}
				// Every trial the search opened on the live state rolled back.
				if err := c.state.CheckInvariants(); err != nil {
					t.Fatalf("%s seed %d: after the search: %v", mix, seed, err)
				}
				draws++
				if len(wantV) == 0 {
					continue
				}
				found++
				if len(wantV) > 1 {
					multiVictim++
				}
				if !j.SingleNode {
					multiNodeFound++
				}
				if slices.ContainsFunc(wantV, func(v *job.Job) bool {
					return len(c.state.MachinesOf(c.state.Allocation(v.ID).GPUs)) > 1
				}) {
					spanning++
				}
			}
		}
	}
	t.Logf("%d draws: %d found victims (%d several victims, %d a machine-spanning victim, %d for a multi-node preemptor)",
		draws, found, multiVictim, spanning, multiNodeFound)
	for name, n := range map[string]int{"found": found, "several victims": multiVictim, "spanning victim": spanning, "multi-node preemptor": multiNodeFound} {
		if n < draws/40 {
			t.Errorf("coverage too thin: %s on %d of %d draws", name, n, draws)
		}
	}
}

// fullOfPriority returns a preempting TOPO-AWARE-P core over minsky:128
// with 400 one-GPU jobs of the given priority restored on GPUs 0..399:
// machines 0..99 full, 100..127 empty.
func fullOfPriority(t *testing.T, prio int) *Core {
	t.Helper()
	topo := topology.Cluster(128, topology.KindMinsky)
	c := New(TopoAwareP, cluster.NewState(topo), mapperUpTo4(t, topo), WithQueueDiscipline(PriorityThenArrival()))
	c.SetPreemption(true)
	for i := 0; i < 400; i++ {
		if err := c.Restore(mkPrioJob(jobID(i), 1, prio, float64(i)), []int{i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestSelectVictimsNoLowerTierAllocatesNothing: a blocked job with no
// strictly lower tier running — nearly every victim search on a contended
// cluster — is answered off the victim index: no candidate list, no walk
// over the 400 running jobs.
func TestSelectVictimsNoLowerTierAllocatesNothing(t *testing.T) {
	c := fullOfPriority(t, 1)
	hi := &Decision{Job: mkPrioJob("hi", 4, 1, 1000), Postponed: true, Reason: "no-capacity"}
	if n := testing.AllocsPerRun(100, func() {
		if c.decide(hi, true) {
			t.Fatal("preempted a job of equal priority")
		}
	}); n != 0 {
		t.Fatalf("a victim search with no lower tier allocates %v objects with 400 jobs running", n)
	}
	// One tier up the same search has work to do and does it.
	if victims, _, _ := c.selectVictims(mkPrioJob("top", 4, 2, 1000)); len(victims) != 4 {
		t.Fatalf("priority-2 preemptor over a priority-1 cluster: %d victims, want one machine's four", len(victims))
	}
}

// TestCoreCheckInvariantsNamesEachTable corrupts the core's running-set
// tables the way a missed update would — Release without the index's
// decrement, Restore without its increment, a state allocated behind the
// core's back, a job filed under another's slot — and demands
// CheckInvariants name each.
func TestCoreCheckInvariantsNamesEachTable(t *testing.T) {
	c := newSched(t, FCFS, topology.Power8Minsky())
	for i, prio := range []int{0, 2, 2} {
		if err := c.Restore(mkPrioJob(jobID(i), 1, prio, 0), []int{i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func() (restore func())
		want    string
	}{
		{"Release skips the decrement", func() func() {
			slot := c.state.Allocation(jobID(0)).Slot
			j := c.running[slot]
			c.running[slot] = nil
			return func() { c.running[slot] = j }
		}, "victim index holds {priority jobs} [{0 1} {2 2}], the running set recounts to [{2 2}]"},
		{"Restore skips the increment", func() func() {
			c.running = append(c.running, mkPrioJob("late", 1, 1, 0))
			return func() { c.running = c.running[:len(c.running)-1] }
		}, "victim index holds {priority jobs} [{0 1} {2 2}], the running set recounts to [{0 1} {1 1} {2 2}]"},
		{"a tier miscounts", func() func() { c.tiers[1].n++; return func() { c.tiers[1].n-- } }, "victim index holds {priority jobs} [{0 1} {2 3}]"},
		{"tiers out of order", func() func() { slices.Reverse(c.tiers); return func() { slices.Reverse(c.tiers) } }, "victim index holds {priority jobs} [{2 2} {0 1}]"},
		{"state allocated directly", func() func() {
			if err := c.state.Allocate("occ", []int{3}, 0, mkPrioJob("occ", 1, 0, 0).Traits()); err != nil {
				t.Fatal(err)
			}
			return func() { _ = c.state.Release("occ") }
		}, "running set"},
		// Two priority-2 jobs swap slots: the tiers and the set of IDs
		// still match, only the slot check can see it.
		{"jobs filed under each other's slots", func() func() {
			a, b := c.state.Allocation(jobID(1)).Slot, c.state.Allocation(jobID(2)).Slot
			swap := func() { c.running[a], c.running[b] = c.running[b], c.running[a] }
			swap()
			return swap
		}, "under slot"},
	} {
		restore := tc.corrupt()
		if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error naming %q", tc.name, err, tc.want)
		}
		restore()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s, restored: %v", tc.name, err)
		}
	}
	// The real updates keep it: every tier empties as its jobs leave.
	for i := 0; i < 3; i++ {
		if err := c.Release(jobID(i)); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.tiers) != 0 {
		t.Fatalf("tiers left behind on an empty core: %v", c.tiers)
	}
}
