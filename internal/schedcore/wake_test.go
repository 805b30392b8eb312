package schedcore

import (
	"fmt"
	"slices"
	"testing"

	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/topology"
)

// heteroDegraded builds minsky:1+minsky-1g:1 — machine 0 healthy
// (GPUs 0..3), machine 1 degraded (GPUs 4..6).
func heteroDegraded(t *testing.T) *topology.Topology {
	t.Helper()
	specs, err := topology.ParseMix("minsky:1+minsky-1g:1")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.HeterogeneousCluster(specs)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestWakeIndexPartialReleaseOnDegradedMachine covers the asymmetric
// wake-up: a 3-GPU job parked under key 3 must stay skipped while the
// largest free block is smaller, and wake when a partial release on the
// degraded 3-GPU machine reaches exactly its key.
func TestWakeIndexPartialReleaseOnDegradedMachine(t *testing.T) {
	topo := heteroDegraded(t)
	s := newSched(t, TopoAwareP, topo)
	// Fill the healthy machine entirely and 2 of the degraded machine's 3
	// GPUs, leaving max-free = 1.
	if err := s.State().Allocate("full", []int{0, 1, 2, 3}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	if err := s.State().Allocate("part", []int{4, 5}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(mkJob("three", 1, 3, 0.0, 0)); err != nil {
		t.Fatal(err)
	}
	ds := s.Schedule()
	if len(ds) != 1 || !ds[0].Postponed || ds[0].Reason != "no-capacity" {
		t.Fatalf("want one no-capacity postponement, got %+v", ds)
	}
	// Parked now: further rounds skip it wholesale — no decision records,
	// but the postponement still counts.
	base := s.Stats()
	for i := 0; i < 3; i++ {
		if ds := s.Schedule(); len(ds) != 0 {
			t.Fatalf("round %d: parked job produced decisions %+v", i, ds)
		}
	}
	st := s.Stats()
	if st.WakeSkips != base.WakeSkips+3 {
		t.Fatalf("WakeSkips = %d, want %d", st.WakeSkips, base.WakeSkips+3)
	}
	if st.Postponements != base.Postponements+3 {
		t.Fatalf("Postponements = %d, want %d (skips must keep counting)", st.Postponements, base.Postponements+3)
	}
	// The partial release frees 2 GPUs on the degraded machine: max-free
	// reaches 3 — exactly the wake-up key — and the job must place there.
	if err := s.Release("part"); err != nil {
		t.Fatal(err)
	}
	ds = s.Schedule()
	if len(ds) != 1 || ds[0].Postponed {
		t.Fatalf("after release: want placement, got %+v", ds)
	}
	ms := s.State().MachinesOf(ds[0].Placement.GPUs)
	if len(ms) != 1 || ms[0] != 1 {
		t.Fatalf("placed on machines %v, want the degraded machine [1]", ms)
	}
	if got := ds[0].Postponements; got != 4 {
		t.Fatalf("placement carries %d postponements, want 4 (1 decision + 3 skips)", got)
	}
	if s.QueueLen() != 0 {
		t.Fatalf("queue = %d", s.QueueLen())
	}
}

// TestWakeIndexSharedKey covers two jobs parked under one wake-up key:
// the first (by queue order) is popped and takes the freed GPUs; the
// second is never even visited — its bucket turned ineligible the moment
// the capacity was consumed — and is accounted as a bulk postponement,
// exactly the aggregate a walk over the whole queue produces.
func TestWakeIndexSharedKey(t *testing.T) {
	s := newSched(t, TopoAwareP, topology.Power8Minsky())
	if err := s.State().Allocate("x", []int{0, 1}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	if err := s.State().Allocate("y", []int{2, 3}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	_ = s.Submit(mkJob("a", 1, 2, 0.0, 0))
	_ = s.Submit(mkJob("b", 1, 2, 0.0, 1))
	ds := s.Schedule()
	if len(ds) != 2 || !ds[0].Postponed || !ds[1].Postponed {
		t.Fatalf("want two postponements, got %+v", ds)
	}
	// Both parked under key 2; rounds skip both in bulk.
	if ds := s.Schedule(); len(ds) != 0 {
		t.Fatalf("parked jobs produced decisions %+v", ds)
	}
	if got := s.Stats().WakeSkips; got != 2 {
		t.Fatalf("WakeSkips = %d, want 2", got)
	}
	if err := s.Release("x"); err != nil {
		t.Fatal(err)
	}
	preSkips := s.Stats().WakeSkips
	prePost := s.Stats().Postponements
	ds = s.Schedule()
	if len(ds) != 1 || ds[0].Job.ID != "a" || ds[0].Postponed {
		t.Fatalf("want exactly a's placement, got %+v", ds)
	}
	if s.QueueLen() != 1 {
		t.Fatalf("queue = %d, want 1 (b still parked)", s.QueueLen())
	}
	// b was skipped in bulk: one more wake skip, and the aggregate
	// postponement count still advances as if a full walk had stamped it.
	if got := s.Stats().WakeSkips; got != preSkips+1 {
		t.Fatalf("WakeSkips = %d, want %d", got, preSkips+1)
	}
	if got := s.Stats().Postponements; got != prePost+1 {
		t.Fatalf("Postponements = %d, want %d", got, prePost+1)
	}
	if err := s.Release("y"); err != nil {
		t.Fatal(err)
	}
	ds = s.Schedule()
	if len(ds) != 1 || ds[0].Postponed || ds[0].Job.ID != "b" {
		t.Fatalf("want b placed after second release, got %+v", ds)
	}
}

// TestWithdrawRemovesQueuedJob covers the serving front-end's cancel
// path for parked, active and in-order queued jobs.
func TestWithdrawRemovesQueuedJob(t *testing.T) {
	s := newSched(t, TopoAwareP, topology.Power8Minsky())
	if err := s.State().Allocate("occ", []int{0, 1, 2, 3}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	_ = s.Submit(mkJob("parkme", 1, 2, 0.0, 0))
	_ = s.Submit(mkJob("active", 1, 1, 0.0, 1))
	s.Schedule() // both parked (no capacity at all)
	if !s.Withdraw("parkme") {
		t.Fatal("parked job not withdrawn")
	}
	if s.Withdraw("parkme") {
		t.Fatal("double withdraw succeeded")
	}
	if s.Withdraw("nosuch") {
		t.Fatal("unknown job withdrawn")
	}
	if s.QueueLen() != 1 {
		t.Fatalf("queue = %d, want 1", s.QueueLen())
	}
	if err := s.Release("occ"); err != nil {
		t.Fatal(err)
	}
	ds := s.Schedule()
	if len(ds) != 1 || ds[0].Job.ID != "active" || ds[0].Postponed {
		t.Fatalf("want only the surviving job placed, got %+v", ds)
	}
	// Withdraw under an in-order policy too.
	w := newSched(t, FCFS, topology.Power8Minsky())
	if err := w.State().Allocate("occ", []int{0, 1, 2, 3}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	_ = w.Submit(mkJob("q", 1, 1, 0.0, 0))
	if !w.Withdraw("q") || w.QueueLen() != 0 {
		t.Fatal("in-order withdraw failed")
	}
}

// TestDecisionTimestampsFollowClock pins the Clock plumbing: decisions
// carry the driver's clock reading at Schedule time.
func TestDecisionTimestampsFollowClock(t *testing.T) {
	topo := topology.Power8Minsky()
	clk := NewManualClock(0)
	s := newSchedWith(t, TopoAwareP, topo, WithClock(clk))
	_ = s.Submit(mkJob("a", 1, 1, 0.0, 0))
	clk.Set(12.5)
	ds := s.Schedule()
	if len(ds) != 1 || ds[0].Time != 12.5 {
		t.Fatalf("decision time = %+v, want 12.5", ds)
	}
	if s.Now() != 12.5 {
		t.Fatalf("Now() = %g", s.Now())
	}
}

// TestQueueStateRestores: a core rebuilt from another's running jobs and
// QueueState makes the same decisions from then on, with the same
// postponement counts and wake-up skips — parked jobs stay parked under
// TOPO-AWARE-P, and the in-order policies keep their explicit counts.
func TestQueueStateRestores(t *testing.T) {
	topo := topology.Power8Minsky()
	for _, policy := range []Policy{TopoAwareP, FCFS} {
		t.Run(policy.String(), func(t *testing.T) {
			live := newSched(t, policy, topo)
			jobs := []*job.Job{mkJob("big", 4, 4, 0, 0), mkJob("pair", 4, 2, 0, 1), mkJob("solo", 4, 1, 0, 2)}
			for _, j := range jobs {
				if err := live.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				live.Schedule()
			}
			qs := live.QueueState()
			if len(qs) != 2 || qs[0].Job.ID != "pair" || qs[1].Job.ID != "solo" {
				t.Fatalf("queue state = %+v", qs)
			}
			if policy == TopoAwareP && (!qs[0].Parked || qs[0].Waited != 3) {
				t.Fatalf("pair: %+v, want parked after 3 rounds waited", qs[0])
			}
			if policy == FCFS && (qs[0].Parked || qs[0].Postponed != 3 || qs[1].Postponed != 0) {
				t.Fatalf("FCFS queue state = %+v, want 3 and 0 explicit postponements", qs)
			}

			restored := newSched(t, policy, topo)
			if err := restored.Restore(jobs[0], live.State().Allocation("big").GPUs, 0); err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				if err := restored.RestoreQueued(q); err != nil {
					t.Fatal(err)
				}
			}
			// One more blocked round, then release the blocker: both cores
			// must log the same two rounds.
			step := func(c *Core) []string {
				var got []string
				for _, release := range []bool{false, true} {
					base := c.Stats()
					if release {
						if err := c.Release("big"); err != nil {
							t.Fatal(err)
						}
					}
					for _, d := range c.Schedule() {
						got = append(got, fmt.Sprintf("%s placed=%v waited=%d", d.Job.ID, !d.Postponed, d.Postponements))
					}
					st := c.Stats()
					got = append(got, fmt.Sprintf("postponements+%d wake-skips+%d", st.Postponements-base.Postponements, st.WakeSkips-base.WakeSkips))
				}
				return got
			}
			if want, got := step(live), step(restored); !slices.Equal(got, want) {
				t.Fatalf("restored core decided %v, live core %v", got, want)
			}
		})
	}
}
