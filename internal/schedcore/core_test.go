package schedcore

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
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

// laneOf returns the lane that holds j's discipline class, or nil.
func laneOf(c *Core, j *job.Job) []entry {
	a := c.disc.Key(j).A
	for _, l := range c.lanes {
		if l.a == a {
			return l.es
		}
	}
	return nil
}

// TestSubmitDeepQueueAllocatesNothing: an out-of-order Submit into a
// queue of 15000 waiting jobs — sim-contended's depth — is a search for
// the job's place in its lane and one shift of the entries behind it
// there, under either discipline; a Submit in arrival order is an append
// to its lane that moves no other class's entries. AllocsPerRun's
// warm-up call grows the lane's array by the one slot the measured calls
// then reuse.
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
			if es := laneOf(c, late); es[0].job == late || es[len(es)-1].job == late || !c.Withdraw("late") {
				t.Fatal("late job not queued mid-lane")
			}
		}); n != 0 {
			t.Fatalf("%s: Submit into a %d-deep queue allocates %v objects", disc.Name(), depth, n)
		}

		// The newest arrival at priority 1 lands at the end of its lane:
		// under priority the 5000 priority-0 jobs behind it in queue order
		// stay where they are.
		newest := mkPrioJob("newest", 1, 1, depth)
		low := laneOf(c, mkPrioJob("low", 1, 0, 0))
		if n := testing.AllocsPerRun(100, func() {
			if err := c.Submit(newest); err != nil {
				t.Fatal(err)
			}
			if es := laneOf(c, newest); es[len(es)-1].job != newest || !c.Withdraw("newest") {
				t.Fatal("newest job not queued at the end of its lane")
			}
		}); n != 0 {
			t.Fatalf("%s: in-order Submit into a %d-deep queue allocates %v objects", disc.Name(), depth, n)
		}
		if disc == PriorityThenArrival() && &laneOf(c, low[0].job)[0] != &low[0] {
			t.Fatalf("%s: a priority-1 arrival moved the priority-0 lane", disc.Name())
		}
	}
}

// TestBusBlockedRoundAllocatesNothing: a TOPO-AWARE round whose one job
// passes the GPU gate but finds no machine with the bus headroom it needs
// postpones the job without allocating: the placer answers nil, not an
// error it formats for nobody, and the decision is written into the
// round's reused buffer. The single-node job finds no class to map; the
// multi-node one is mapped once onto the other machine's GPUs, too few
// for it, and the mapper's refusal is its one sentinel.
func TestBusBlockedRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so exact allocation counts do not hold")
	}
	multi := mkJob("a", 16, 6, 0, 0)
	multi.SingleNode = false
	for _, tc := range []struct {
		name string
		topo *topology.Topology
		job  *job.Job
	}{
		{"single-node", topology.Power8Minsky(), mkJob("a", 16, 2, 0, 0)},
		{"multi-node", topology.Cluster(2, topology.KindMinsky), multi},
	} {
		c := newSched(t, TopoAware, tc.topo)
		hog := mkJob("hog", 16, 1, 0, 0)
		if err := c.State().Allocate(hog.ID, []int{0}, c.State().FreeBusBandwidth(0), hog.Traits()); err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(tc.job); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if ds := c.Schedule(); len(ds) != 1 || !ds[0].Postponed || ds[0].Reason != "no-capacity" {
				t.Fatalf("%s: the job was not postponed on the committed bus", tc.name)
			}
		}); n != 0 {
			t.Fatalf("%s: a bus-blocked round allocates %v objects", tc.name, n)
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
	if tail := s.lanes[0].es[:3][2]; tail != (entry{}) {
		t.Fatalf("vacated slot still holds %+v", tail)
	}
}

// TestIndexedWalkClearsPlacedSlots: the wake-up-index walk moves a lane's
// survivors up in place; the slots behind them, placed or parked jobs
// among them, must not keep those jobs reachable.
func TestIndexedWalkClearsPlacedSlots(t *testing.T) {
	s := newSched(t, TopoAwareP, topology.Power8Minsky())
	for i, gpus := range []int{1, 1, 4} {
		if err := s.Submit(mkJob(fmt.Sprintf("j%d", i), 1, gpus, 0, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := placedIDs(s.Schedule()); len(got) != 2 || s.QueueLen() != 1 {
		t.Fatalf("placed %v with %d waiting, want two placed and the 4-GPU job parked", got, s.QueueLen())
	}
	if len(s.lanes) != 0 {
		t.Fatalf("%d lanes left with every active job placed or parked", len(s.lanes))
	}
	for i, e := range s.spare[:3] {
		if e != (entry{}) {
			t.Fatalf("slot %d of the drained lane still holds %s", i, e.job.ID)
		}
	}
}

// TestWalkQueueBackingStaysBounded: the in-order walk drops its placed
// prefix by advancing its lane's head, so the backing array is reclaimed
// only when a Submit regrows it. Over a steady submit/place stream ten
// times the queue's depth every lane's capacity must stay within a
// constant factor of its peak length, and a walk must leave no placed job
// in the prefix it stepped over. Under priority the stream alternates two
// classes: the priority-1 lane drains after about depth rounds and from
// then on opens and drains every other round, on the spare array.
func TestWalkQueueBackingStaysBounded(t *testing.T) {
	const depth = 2000
	for _, disc := range []QueueDiscipline{FIFOByArrival(), PriorityThenArrival()} {
		s := newSchedWith(t, FCFS, topology.Power8Minsky(), WithQueueDiscipline(disc))
		submit := func(i int) {
			t.Helper()
			if err := s.Submit(mkPrioJob(fmt.Sprintf("q%d", i), 4, i%2, float64(i))); err != nil {
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
			before := s.lanes[0].es // the same backing array, head included
			decs := s.Schedule()
			if len(decs) != 2 || decs[0].Postponed || !decs[1].Postponed {
				t.Fatalf("%s round %d: want the head placed and the next job blocked behind it, got %d decisions", disc.Name(), i, len(decs))
			}
			running = decs[0].Job.ID
			if before[0] != (entry{}) {
				t.Fatalf("%s round %d: placed job %s still in the slot the walk stepped over", disc.Name(), i, running)
			}
			if len(before) > 1 && &s.lanes[0].es[0] != &before[1] {
				t.Fatalf("%s round %d: lane did not advance one slot in place", disc.Name(), i)
			}
			if len(s.lanes) > 2 {
				t.Fatalf("%s round %d: %d lanes for two classes", disc.Name(), i, len(s.lanes))
			}
			for _, l := range s.lanes {
				if got := cap(l.es); got > 2*(depth+1) {
					t.Fatalf("%s round %d: lane %v capacity %d for %d entries", disc.Name(), i, l.a, got, len(l.es))
				}
			}
		}
	}

	// A queue that drains keeps its array as the spare, and the next
	// Submit opens its lane on it: a short queue emptied every round must
	// not reallocate on every Submit.
	short := newSched(t, FCFS, topology.Power8Minsky())
	for i := 0; i < 3; i++ {
		if err := short.Submit(mkJob(fmt.Sprintf("s%d", i), 1, 1, 0, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	was := cap(short.lanes[0].es)
	if got := placedIDs(short.Schedule()); len(got) != 3 {
		t.Fatalf("placed %v, want all three", got)
	}
	if len(short.lanes) != 0 || cap(short.spare) != was {
		t.Fatalf("drained queue: %d lanes, spare cap %d, want the whole %d-slot array kept", len(short.lanes), cap(short.spare), was)
	}
	if err := short.Submit(mkJob("s3", 1, 1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if got := cap(short.lanes[0].es); got != was {
		t.Fatalf("reopened lane cap %d, want the spare's %d", got, was)
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

// checkQueueOrder replays an operation stream on a core and checks, after
// every operation, that Queued() is the queue's definition: the waiting
// jobs appended in submission order (a requeued victim as a fresh
// submission), then stable-sorted by the discipline key. ops[0] picks the
// policy, the discipline and whether preemption is on; each further op is
// one byte, and a Submit or a Withdraw reads one more. Submissions draw
// priorities from −2..2 and arrivals from eight values, so ties, classes
// that open and drain, and out-of-order arrivals are all common.
func checkQueueOrder(t *testing.T, ops []byte) {
	if len(ops) == 0 {
		return
	}
	disc := []QueueDiscipline{FIFOByArrival(), PriorityThenArrival()}[ops[0]>>2&1]
	c := newSchedWith(t, AllPolicies()[ops[0]&3], topology.Power8Minsky(), WithQueueDiscipline(disc))
	c.SetPreemption(ops[0]&8 != 0)
	var want, running []*job.Job
	drop := func(js []*job.Job, j *job.Job) []*job.Job {
		i := slices.Index(js, j)
		if i < 0 {
			t.Fatalf("%s is not where the model has it", j.ID)
		}
		return slices.Delete(js, i, i+1)
	}
	arg := func(i int) int {
		if i < len(ops) {
			return int(ops[i])
		}
		return 0
	}
	for i, n := 1, 0; i < len(ops); i++ {
		op := int(ops[i])
		switch op & 3 {
		case 0, 1: // Submit: 1, 2 or 4 GPUs, some with a utility floor
			i++
			b := arg(i)
			minU := 0.0
			if op&16 != 0 {
				minU = 0.95
			}
			j := mkPrioJob(fmt.Sprintf("j%d", n), []int{1, 2, 4}[op>>2&3%3], b>>3%5-2, float64(b&7))
			j.MinUtility = minU
			n++
			if err := c.Submit(j); err != nil {
				t.Fatal(err)
			}
			want = append(want, j)
		case 2: // Withdraw the k-th waiting job, or one that is not waiting
			i++
			if k := arg(i); k < len(want) {
				if !c.Withdraw(want[k].ID) {
					t.Fatalf("waiting job %s not withdrawn", want[k].ID)
				}
				want = slices.Delete(want, k, k+1)
			} else if c.Withdraw("absent") {
				t.Fatal("a job never submitted withdrawn")
			}
		case 3: // a Schedule round, after releasing a running job
			if op&4 != 0 && len(running) > 0 {
				j := running[op>>3%len(running)]
				if err := c.Release(j.ID); err != nil {
					t.Fatal(err)
				}
				running = drop(running, j)
			}
			for _, d := range c.Schedule() {
				if d.Postponed {
					continue
				}
				for _, ev := range d.Evictions {
					running = drop(running, ev.Job)
					want = append(want, ev.Job)
				}
				want = drop(want, d.Job)
				running = append(running, d.Job)
			}
		}
		slices.SortStableFunc(want, func(a, b *job.Job) int {
			ka, kb := disc.Key(a), disc.Key(b)
			if ka.Less(&kb) {
				return -1
			}
			if kb.Less(&ka) {
				return 1
			}
			return 0
		})
		if got := c.Queued(); !slices.Equal(got, want) {
			t.Fatalf("op %d (%d): queue %v, want %v", i, op, idsOf(got), idsOf(want))
		}
		if c.QueueLen() != len(want) {
			t.Fatalf("op %d: QueueLen %d, want %d", i, c.QueueLen(), len(want))
		}
	}
}

func idsOf(js []*job.Job) []string {
	ids := make([]string, len(js))
	for i, j := range js {
		ids[i] = j.ID
	}
	return ids
}

// TestInsertOrderedEqualsStableSort pins the queue to its definition:
// append, then stable-sort the whole queue by the discipline. Random
// operation streams run under every policy and both disciplines, with
// preemption off and on.
func TestInsertOrderedEqualsStableSort(t *testing.T) {
	for mode := 0; mode < 16; mode++ {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 400)
			rng.Read(ops)
			ops[0] = byte(mode)
			checkQueueOrder(t, ops)
		}
	}
}

// FuzzQueueOrder is TestInsertOrderedEqualsStableSort's property over
// fuzzed operation streams.
func FuzzQueueOrder(f *testing.F) {
	// TOPO-AWARE-P under priority with preemption: submissions of each
	// class, a round, a withdrawal, a release and another round.
	f.Add([]byte{15, 0, 0, 1, 16, 4, 40, 3, 2, 1, 7, 0, 255, 3})
	// FCFS under fifo: out-of-order arrivals, then rounds.
	f.Add([]byte{1, 0, 7, 0, 3, 0, 5, 3, 7, 3})
	f.Fuzz(checkQueueOrder)
}
