package schedcore

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/topology"
)

func newSched(t *testing.T, policy Policy, topo *topology.Topology) *Core {
	t.Helper()
	return newSchedWith(t, policy, topo)
}

func newSchedWith(t *testing.T, policy Policy, topo *topology.Topology, opts ...Option) *Core {
	t.Helper()
	st := cluster.NewState(topo)
	m, err := core.NewMapper(profile.Generate(topo, topo.NumGPUs()), core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	return New(policy, st, m, opts...)
}

// mapperUpTo4 builds a mapper profiled for jobs of at most four GPUs —
// newSchedWith profiles every size up to the whole cluster, which is
// minutes on a hundred-machine fleet.
func mapperUpTo4(t *testing.T, topo *topology.Topology) *core.Mapper {
	t.Helper()
	return mapperUpTo(t, topo, 4)
}

func mapperUpTo(t *testing.T, topo *topology.Topology, maxGPUs int) *core.Mapper {
	t.Helper()
	m, err := core.NewMapper(profile.Generate(topo, maxGPUs), core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mkJob(id string, batch, gpus int, minU, arrival float64) *job.Job {
	return job.New(id, perfmodel.AlexNet, batch, gpus, minU, arrival)
}

func TestPolicyStringAndParse(t *testing.T) {
	for _, p := range AllPolicies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy must render")
	}
	if len(AllPolicies()) != 4 {
		t.Fatal("expected four policies")
	}
}

// TestPolicyJSONRoundTrip keeps the sweep-artifact encoding stable: a
// policy marshals as its figure name.
func TestPolicyJSONRoundTrip(t *testing.T) {
	for _, p := range AllPolicies() {
		js, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back Policy
		if err := json.Unmarshal(js, &back); err != nil || back != p {
			t.Fatalf("round trip %v via %s: %v, %v", p, js, back, err)
		}
	}
	var p Policy
	if err := json.Unmarshal([]byte(`"bogus"`), &p); err == nil {
		t.Fatal("unknown policy name decoded")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newSched(t, FCFS, topology.Power8Minsky())
	if err := s.Submit(mkJob("", 1, 1, 0.3, 0)); err == nil {
		t.Fatal("invalid job accepted")
	}
	if err := s.Submit(mkJob("a", 1, 1, 0.3, 5)); err != nil {
		t.Fatal(err)
	}
	if s.QueueLen() != 1 {
		t.Fatalf("queue = %d", s.QueueLen())
	}
}

func TestQueueSortedByArrival(t *testing.T) {
	s := newSched(t, FCFS, topology.Power8Minsky())
	_ = s.Submit(mkJob("late", 1, 1, 0.3, 10))
	_ = s.Submit(mkJob("early", 1, 1, 0.3, 1))
	q := s.Queued()
	if q[0].ID != "early" || q[1].ID != "late" {
		t.Fatalf("queue order: %v, %v", q[0].ID, q[1].ID)
	}
}

func TestFCFSPlacesFirstFreeGPUs(t *testing.T) {
	s := newSched(t, FCFS, topology.Power8Minsky())
	_ = s.Submit(mkJob("a", 1, 2, 0.0, 0))
	ds := s.Schedule()
	if len(ds) != 1 || ds[0].Postponed {
		t.Fatalf("decisions = %+v", ds)
	}
	got := ds[0].Placement.GPUs
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("FCFS GPUs = %v, want [0 1]", got)
	}
}

func TestBestFitPrefersUsedSocket(t *testing.T) {
	s := newSched(t, BestFit, topology.Power8Minsky())
	// Occupy GPU0 (socket 0).
	if err := s.State().Allocate("occ", []int{0}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	_ = s.Submit(mkJob("a", 1, 1, 0.0, 0))
	ds := s.Schedule()
	if ds[0].Postponed {
		t.Fatal("postponed unexpectedly")
	}
	// Bin packing: the most-used socket (socket 0) is filled first.
	if got := ds[0].Placement.GPUs[0]; got != 1 {
		t.Fatalf("BF chose GPU %d, want 1 (socket 0)", got)
	}
}

func TestBestFitTightestMachineFirst(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	s := newSched(t, BestFit, topo)
	// Machine 0 has 3 free GPUs, machine 1 has 4.
	if err := s.State().Allocate("occ", []int{0}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	_ = s.Submit(mkJob("a", 1, 2, 0.0, 0))
	ds := s.Schedule()
	ms := s.State().MachinesOf(ds[0].Placement.GPUs)
	if len(ms) != 1 || ms[0] != 0 {
		t.Fatalf("BF machines = %v, want tightest machine 0", ms)
	}
}

func TestTopoAwarePacksPair(t *testing.T) {
	s := newSched(t, TopoAware, topology.Power8Minsky())
	_ = s.Submit(mkJob("a", 1, 2, 0.5, 0))
	ds := s.Schedule()
	p := ds[0].Placement
	if !s.State().Topology().SameSocket(p.GPUs[0], p.GPUs[1]) {
		t.Fatalf("TOPO-AWARE placement %v not packed", p.GPUs)
	}
	if !p.P2P {
		t.Fatal("expected P2P placement")
	}
}

func TestInOrderPoliciesBlockOnHead(t *testing.T) {
	for _, pol := range []Policy{FCFS, BestFit, TopoAware} {
		s := newSched(t, pol, topology.Power8Minsky())
		// Take 3 GPUs so only one remains.
		if err := s.State().Allocate("occ", []int{0, 1, 2}, 0, perfmodel.Traits{}); err != nil {
			t.Fatal(err)
		}
		_ = s.Submit(mkJob("big", 1, 2, 0.0, 0))   // cannot fit
		_ = s.Submit(mkJob("small", 1, 1, 0.0, 1)) // could fit, but is behind
		s.Schedule()
		if got := s.State().Owner(3); got != "" {
			t.Fatalf("[%v] head-of-line blocking violated: GPU3 given to %q", pol, got)
		}
		if s.QueueLen() != 2 {
			t.Fatalf("[%v] queue = %d, want 2", pol, s.QueueLen())
		}
	}
}

func TestTopoAwarePSkipsBlockedHead(t *testing.T) {
	s := newSched(t, TopoAwareP, topology.Power8Minsky())
	if err := s.State().Allocate("occ", []int{0, 1, 2}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	_ = s.Submit(mkJob("big", 1, 2, 0.0, 0))
	_ = s.Submit(mkJob("small", 1, 1, 0.0, 1))
	s.Schedule()
	// Out-of-order execution: the single-GPU job runs past the blocked head.
	if got := s.State().Owner(3); got != "small" {
		t.Fatalf("out-of-order execution failed: GPU3 owned by %q", got)
	}
	if s.QueueLen() != 1 {
		t.Fatalf("queue = %d, want 1 (big still waiting)", s.QueueLen())
	}
}

func TestTopoAwarePPostponesLowUtility(t *testing.T) {
	s := newSched(t, TopoAwareP, topology.Power8Minsky())
	// Occupy one GPU per socket so only a cross-socket pair remains.
	if err := s.State().Allocate("occ", []int{1, 3}, 0,
		perfmodel.Traits{Model: perfmodel.GoogLeNet, Class: 3, GPUs: 1}); err != nil {
		t.Fatal(err)
	}
	// A communication-hungry 2-GPU job with the Table 1 threshold 0.5:
	// the only placement is {0, 2} (cross-socket), scoring below 0.5.
	_ = s.Submit(mkJob("comm", 4, 2, 0.5, 0))
	ds := s.Schedule()
	if !ds[0].Postponed || ds[0].Reason != "low-utility" {
		t.Fatalf("decision = %+v, want low-utility postponement", ds[0])
	}
	if s.QueueLen() != 1 {
		t.Fatal("job left the queue")
	}
	if s.Stats().Postponements == 0 {
		t.Fatal("postponement not counted")
	}
}

func TestTopoAwarePlacesLowUtilityAnyway(t *testing.T) {
	s := newSched(t, TopoAware, topology.Power8Minsky())
	if err := s.State().Allocate("occ", []int{1, 3}, 0,
		perfmodel.Traits{Model: perfmodel.GoogLeNet, Class: 3, GPUs: 1}); err != nil {
		t.Fatal(err)
	}
	_ = s.Submit(mkJob("comm", 4, 2, 0.5, 0))
	ds := s.Schedule()
	if ds[0].Postponed {
		t.Fatal("TOPO-AWARE must place when resources are available")
	}
	if !ds[0].SLOViolated {
		t.Fatal("placement below the job's minimum utility must be flagged")
	}
	if s.Stats().SLOViolations != 1 {
		t.Fatalf("violations = %d", s.Stats().SLOViolations)
	}
}

func TestTopoAwarePIdleClusterEscape(t *testing.T) {
	// On an idle cluster no future placement can be better, so even a
	// below-threshold job is placed best-effort (deadlock avoidance).
	topo := topology.Power8Minsky()
	s := newSched(t, TopoAwareP, topo)
	j := mkJob("impossible", 1, 2, 0.999, 0)
	_ = s.Submit(j)
	ds := s.Schedule()
	if ds[0].Postponed {
		t.Fatal("idle-cluster escape did not fire")
	}
}

// TestClusterIdleIsConstantTime: TOPO-AWARE-P asks for the idle-cluster
// escape on every low-utility re-decision, so the answer must come from
// the state's counters — listing the running jobs allocates (and sorts)
// a slice as long as the cluster is busy.
func TestClusterIdleIsConstantTime(t *testing.T) {
	topo := topology.Cluster(128, topology.KindMinsky)
	st := cluster.NewState(topo)
	for i := 0; i < 400; i++ {
		if err := st.Allocate(jobID(i), []int{i}, 0, perfmodel.Traits{}); err != nil {
			t.Fatal(err)
		}
	}
	p := placer{policy: TopoAwareP, state: st, mapper: mapperUpTo4(t, topo)}
	j := mkJob("picky", 1, 2, 0.999, 0)
	if pl, reason := p.attempt(j); pl != nil || reason != "low-utility" {
		t.Fatalf("busy cluster: attempt = %+v, %q, want a low-utility postponement", pl, reason)
	}
	if n := testing.AllocsPerRun(100, func() {
		if p.clusterIdle() {
			t.Fatal("a cluster with 400 running jobs reads idle")
		}
	}); n != 0 {
		t.Fatalf("clusterIdle allocates %v objects with 400 jobs running", n)
	}
	for i := 0; i < 400; i++ {
		if err := st.Release(jobID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if pl, _ := p.attempt(j); pl == nil || !p.clusterIdle() {
		t.Fatal("idle-cluster escape did not fire once every job was released")
	}
}

// TestSubmitDeepQueueAllocatesNothing: an out-of-order Submit into a
// queue of 15000 waiting jobs — sim-contended's depth — is a search for
// the job's place and one shift of the entries behind it under either
// discipline. AllocsPerRun's warm-up call grows the queue's array by the
// one slot the measured calls then reuse.
func TestSubmitDeepQueueAllocatesNothing(t *testing.T) {
	const depth = 15000
	for _, disc := range []QueueDiscipline{FIFOByArrival(), PriorityThenArrival()} {
		c := newSchedWith(t, FCFS, topology.Power8Minsky(), WithQueueDiscipline(disc))
		for i := 0; i < depth; i++ {
			if err := c.Submit(mkPrioJob(fmt.Sprintf("q%d", i), 1, i%3, float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		late := mkPrioJob("late", 1, 1, depth/2)
		if n := testing.AllocsPerRun(100, func() {
			if err := c.Submit(late); err != nil {
				t.Fatal(err)
			}
			if c.queue[0].job == late || c.queue[depth].job == late || !c.Withdraw("late") {
				t.Fatal("late job not queued mid-queue")
			}
		}); n != 0 {
			t.Fatalf("%s: Submit into a %d-deep queue allocates %v objects", disc.Name(), depth, n)
		}
	}
}

// TestWithdrawClearsVacatedSlot: removing a queued job must not leave it
// reachable past the queue's length in the backing array.
func TestWithdrawClearsVacatedSlot(t *testing.T) {
	s := newSched(t, FCFS, topology.Power8Minsky())
	for i, id := range []string{"a", "b", "c"} {
		if err := s.Submit(mkJob(id, 1, 1, 0, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Withdraw("b") {
		t.Fatal("queued job not withdrawn")
	}
	if got := s.Queued(); len(got) != 2 || got[0].ID != "a" || got[1].ID != "c" {
		t.Fatalf("queue after withdraw = %v", got)
	}
	if tail := s.queue[:3][2]; tail != (entry{}) {
		t.Fatalf("vacated slot still holds %+v", tail)
	}
}

// TestWalkQueueBackingStaysBounded: the in-order walk drops its placed
// prefix by advancing the queue's head, so the backing array is reclaimed
// only when a Submit regrows it. Over a steady submit/place stream ten
// times the queue's depth the capacity must stay within a constant factor
// of the peak length, and a walk must leave no placed job in the prefix
// it stepped over.
func TestWalkQueueBackingStaysBounded(t *testing.T) {
	const depth = 2000
	s := newSched(t, FCFS, topology.Power8Minsky())
	submit := func(i int) {
		t.Helper()
		if err := s.Submit(mkJob(fmt.Sprintf("q%d", i), 1, 4, 0, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < depth; i++ {
		submit(i)
	}
	running := ""
	for i := depth; i < 11*depth; i++ {
		if running != "" {
			if err := s.Release(running); err != nil {
				t.Fatal(err)
			}
		}
		submit(i)
		before := s.queue // the same backing array, head included
		decs := s.Schedule()
		if len(decs) != 2 || decs[0].Postponed || !decs[1].Postponed {
			t.Fatalf("round %d: want the head placed and the next job blocked behind it, got %d decisions", i, len(decs))
		}
		running = decs[0].Job.ID
		if before[0] != (entry{}) {
			t.Fatalf("round %d: placed job %s still in the slot the walk stepped over", i, running)
		}
		if len(s.queue) != depth || &s.queue[0] != &before[1] {
			t.Fatalf("round %d: queue is %d long and did not advance one slot in place", i, len(s.queue))
		}
		if got := cap(s.queue); got > 2*(depth+1) {
			t.Fatalf("round %d: queue capacity %d for %d entries", i, got, len(s.queue))
		}
	}

	// A queue that drains keeps its array: a short queue emptied every
	// round must not reallocate on every Submit.
	short := newSched(t, FCFS, topology.Power8Minsky())
	for i := 0; i < 3; i++ {
		if err := short.Submit(mkJob(fmt.Sprintf("s%d", i), 1, 1, 0, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	was := cap(short.queue)
	if got := placedIDs(short.Schedule()); len(got) != 3 {
		t.Fatalf("placed %v, want all three", got)
	}
	if len(short.queue) != 0 || cap(short.queue) != was {
		t.Fatalf("drained queue: len %d cap %d, want the whole %d-slot array kept", len(short.queue), cap(short.queue), was)
	}
}

func TestReleaseFreesResources(t *testing.T) {
	s := newSched(t, FCFS, topology.Power8Minsky())
	_ = s.Submit(mkJob("a", 1, 4, 0.0, 0))
	s.Schedule()
	if s.State().FreeGPUCount() != 0 {
		t.Fatal("allocation missing")
	}
	if err := s.Release("a"); err != nil {
		t.Fatal(err)
	}
	if s.State().FreeGPUCount() != 4 {
		t.Fatal("release did not free")
	}
	if err := s.Release("a"); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestScheduleStats(t *testing.T) {
	s := newSched(t, FCFS, topology.Power8Minsky())
	_ = s.Submit(mkJob("a", 1, 2, 0.0, 0))
	_ = s.Submit(mkJob("b", 1, 2, 0.0, 1))
	_ = s.Submit(mkJob("c", 1, 2, 0.0, 2)) // cannot fit after a and b
	s.Schedule()
	st := s.Stats()
	if st.Placements != 2 {
		t.Fatalf("placements = %d", st.Placements)
	}
	if st.Postponements != 1 {
		t.Fatalf("postponements = %d", st.Postponements)
	}
	if st.MeanDecisionTime() <= 0 {
		t.Fatal("decision time not measured")
	}
	// Stats on an empty scheduler divide safely.
	var zero Stats
	if zero.MeanDecisionTime() != 0 {
		t.Fatal("zero stats mean decision time should be 0")
	}
}

// TestStatsAdd pins the merge semantics shards and snapshot bases rely
// on: counters and DecisionTime sum, MaxDecision takes the larger side.
func TestStatsAdd(t *testing.T) {
	a := Stats{
		Decisions: 1, Placements: 2, Postponements: 3, SLOViolations: 4, WakeSkips: 5,
		Preemptions: 6, Evictions: 7, DecisionTime: 8 * time.Millisecond, MaxDecision: 2 * time.Millisecond,
	}
	b := Stats{
		Decisions: 10, Placements: 20, Postponements: 30, SLOViolations: 40, WakeSkips: 50,
		Preemptions: 60, Evictions: 70, DecisionTime: 80 * time.Millisecond, MaxDecision: time.Millisecond,
	}
	sum := Stats{
		Decisions: 11, Placements: 22, Postponements: 33, SLOViolations: 44, WakeSkips: 55,
		Preemptions: 66, Evictions: 77, DecisionTime: 88 * time.Millisecond,
	}
	sum.MaxDecision = 2 * time.Millisecond // the larger of the two, not 3ms
	for _, tc := range []struct {
		name              string
		into, other, want Stats
	}{
		{"larger max on the receiver", a, b, sum},
		{"larger max on the argument", b, a, sum},
		{"zero is the identity", a, Stats{}, a},
	} {
		got := tc.into
		got.Add(tc.other)
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestMultiNodeJobSpansMachines(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	s := newSched(t, TopoAware, topo)
	// Fill all of machine 0 and half of machine 1: a 6-GPU multi-node
	// job must span machines.
	j := mkJob("wide", 128, 6, 0.0, 0)
	j.SingleNode = false
	_ = s.Submit(j)
	ds := s.Schedule()
	if ds[0].Postponed {
		t.Fatalf("multi-node placement failed: %+v", ds[0])
	}
	ms := s.State().MachinesOf(ds[0].Placement.GPUs)
	if len(ms) != 2 {
		t.Fatalf("6-GPU job spans %v machines, want 2", ms)
	}
}

func TestSingleNodeJobNeverSpans(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	for _, pol := range AllPolicies() {
		s := newSched(t, pol, topo)
		// 2 free on machine 0, 3 free on machine 1: a 4-GPU single-node
		// job cannot be placed even though 5 GPUs are free in total.
		if err := s.State().Allocate("o1", []int{0, 1}, 0, perfmodel.Traits{}); err != nil {
			t.Fatal(err)
		}
		if err := s.State().Allocate("o2", []int{4}, 0, perfmodel.Traits{}); err != nil {
			t.Fatal(err)
		}
		_ = s.Submit(mkJob("sn", 1, 4, 0.0, 0))
		ds := s.Schedule()
		// The capacity gate skips the job without a decision record, or
		// the policy records a postponement; either way nothing is placed.
		if len(ds) > 0 && !ds[0].Postponed {
			t.Fatalf("[%v] single-node constraint violated: %v", pol, ds[0].Placement.GPUs)
		}
		if s.QueueLen() != 1 {
			t.Fatalf("[%v] queue = %d, want 1", pol, s.QueueLen())
		}
	}
}

func TestCapacityGateSkipsEvaluation(t *testing.T) {
	s := newSched(t, TopoAwareP, topology.Power8Minsky())
	if err := s.State().Allocate("occ", []int{0, 1, 2, 3}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	_ = s.Submit(mkJob("a", 1, 1, 0.0, 0))
	ds := s.Schedule()
	// Gate fires before tryPlace: a no-capacity postponement is reported
	// but no placement evaluation is timed or counted.
	if len(ds) != 1 || !ds[0].Postponed || ds[0].Reason != "no-capacity" {
		t.Fatalf("decisions = %+v, want one no-capacity postponement", ds)
	}
	if s.QueueLen() != 1 {
		t.Fatal("job dropped by the capacity gate")
	}
	if s.Stats().Decisions != 0 {
		t.Fatal("gated job counted as a timed decision")
	}
	if s.Stats().Postponements != 1 {
		t.Fatal("gated job not counted as postponed")
	}
}

// TestInsertOrderedEqualsStableSort pins insertOrdered to the definition
// it replaced: append, then stable-sort the whole queue by the
// discipline. Arrivals and priorities are drawn from few values so ties,
// where submission order decides, are the common case.
func TestInsertOrderedEqualsStableSort(t *testing.T) {
	for _, disc := range []QueueDiscipline{FIFOByArrival(), PriorityThenArrival()} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := &Core{disc: disc}
			var got, want []entry
			for seq := 0; seq < 300; seq++ {
				j := mkJob(fmt.Sprintf("j%d", seq), 4, 1, 0, float64(rng.Intn(12)))
				j.Priority = rng.Intn(3)
				e := entry{job: j, seq: seq}
				got = c.insertOrdered(got, e)
				want = append(want, e)
				sort.SliceStable(want, func(i, k int) bool { return disc.Less(want[i].job, want[k].job) })
				if !slices.Equal(got, want) {
					t.Fatalf("%s seed %d: queues diverged inserting %s (arrival %v, priority %d)",
						disc.Name(), seed, j.ID, j.Arrival, j.Priority)
				}
			}
		}
	}
}
