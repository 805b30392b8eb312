package schedcore

import (
	"math"
	"slices"
	"strings"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/topology"
)

// sameState holds got, a state a failed step was rolled back on, to want,
// a Clone taken before the step, on every reader: the jobs, their GPUs and
// slots, the free GPUs, the bits of the Eq. 5 sum and of every bus, every
// fingerprint, the free-count gauges — and the slot the next allocation
// takes, which shows the free-slot list.
func sameState(t *testing.T, got, want *cluster.State) {
	t.Helper()
	if !slices.Equal(got.Jobs(), want.Jobs()) || !slices.Equal(got.FreeGPUs(), want.FreeGPUs()) {
		t.Fatalf("jobs %v, free %v; before the round %v, %v", got.Jobs(), got.FreeGPUs(), want.Jobs(), want.FreeGPUs())
	}
	for _, id := range want.Jobs() {
		g, w := got.Allocation(id), want.Allocation(id)
		if !slices.Equal(g.GPUs, w.GPUs) || g.Slot != w.Slot {
			t.Fatalf("job %s on %v in slot %d, before the round on %v in slot %d", id, g.GPUs, g.Slot, w.GPUs, w.Slot)
		}
	}
	if math.Float64bits(got.Fragmentation()) != math.Float64bits(want.Fragmentation()) ||
		got.MaxFreeGPUs() != want.MaxFreeGPUs() || got.FreeMachines() != want.FreeMachines() {
		t.Fatal("the free-capacity gauges moved")
	}
	for m := 0; m < got.Topology().NumMachines(); m++ {
		if math.Float64bits(got.FreeBusBandwidth(m)) != math.Float64bits(want.FreeBusBandwidth(m)) ||
			got.MachineFingerprint(m) != want.MachineFingerprint(m) {
			t.Fatalf("machine %d: bus or fingerprint moved", m)
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	free := want.FreeGPUs()
	if len(free) == 0 {
		return
	}
	g, err := got.AllocateSlot("probe", free[:1], 0, mkJob("probe", 1, 1, 0, 0).Traits())
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.AllocateSlot("probe", free[:1], 0, mkJob("probe", 1, 1, 0, 0).Traits())
	if err != nil {
		t.Fatal(err)
	}
	if g != w {
		t.Fatalf("the next allocation takes slot %d, before the round %d: the free-slot list moved", g, w)
	}
}

// TestFailedPreemptionRollsBack puts an allocation under the preemptor's
// own ID on the one GPU its victims do not hold, so the preemption's
// commit — evict two victims, allocate — fails at the allocation, after
// the evictions. The whole step must roll back: no panic, the state as it
// was, the running set and the victim index untouched, no victim queued
// again, the preemptor postponed with reason "fault", and the fault
// naming it.
func TestFailedPreemptionRollsBack(t *testing.T) {
	for _, p := range []Policy{FCFS, BestFit, TopoAware, TopoAwareP} {
		t.Run(p.String(), func(t *testing.T) {
			c := newSchedWith(t, p, topology.Power8Minsky(), WithQueueDiscipline(PriorityThenArrival()))
			c.SetPreemption(true)
			for i, id := range []string{"low1", "low2", "low3"} {
				_ = c.Submit(mkPrioJob(id, 1, 0, float64(i)))
			}
			if ids := placedIDs(c.Schedule()); len(ids) != 3 {
				t.Fatalf("setup placements: %v", ids)
			}
			st := c.State()
			hi := mkPrioJob("hi", 2, 1, 5)
			if err := st.Allocate(hi.ID, st.FreeGPUs(), 0, hi.Traits()); err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(hi); err != nil {
				t.Fatal(err)
			}
			before := st.Clone()
			running, tiers := slices.Clone(c.running), slices.Clone(c.tiers)
			stats := c.Stats()

			ds := c.Schedule()
			if len(ds) != 1 || !ds[0].Postponed || ds[0].Reason != "fault" || ds[0].Evictions != nil {
				t.Fatalf("decisions %+v, want hi postponed for a fault", ds)
			}
			sameState(t, st, before)
			if !slices.Equal(c.running, running) || !slices.Equal(c.tiers, tiers) {
				t.Fatalf("running %v tiers %v, before the round %v %v", c.running, c.tiers, running, tiers)
			}
			if q := c.Queued(); len(q) != 1 || q[0] != hi || len(c.pendingRequeue) != 0 {
				t.Fatalf("queue %v, staged %v: a victim was queued again", q, c.pendingRequeue)
			}
			if s := c.Stats(); s.Preemptions != stats.Preemptions || s.Evictions != stats.Evictions || s.Placements != stats.Placements {
				t.Fatalf("stats %+v, before the round %+v", s, stats)
			}
			if err := c.Fault(); err == nil || !strings.Contains(err.Error(), "preempting for hi: cluster: job hi already allocated") {
				t.Fatalf("Fault() = %v, want the failed preemption of hi", err)
			}
		})
	}
}

// TestFailedPlacementIsAFault is the same set-up for a job that places
// without preempting: its allocation is refused, which must change
// nothing and read as the core's fault, not as "no-capacity".
func TestFailedPlacementIsAFault(t *testing.T) {
	for _, p := range []Policy{FCFS, BestFit, TopoAware, TopoAwareP} {
		t.Run(p.String(), func(t *testing.T) {
			c := newSched(t, p, topology.Power8Minsky())
			st := c.State()
			j := mkJob("j", 1, 1, 0, 0)
			if err := st.Allocate(j.ID, []int{3}, 0, j.Traits()); err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(j); err != nil {
				t.Fatal(err)
			}
			before := st.Clone()

			ds := c.Schedule()
			if len(ds) != 1 || !ds[0].Postponed || ds[0].Reason != "fault" {
				t.Fatalf("decisions %+v, want j postponed for a fault", ds)
			}
			sameState(t, st, before)
			if len(c.Running()) != 0 || c.QueueLen() != 1 {
				t.Fatalf("running %v, %d queued: want none running, j queued", c.Running(), c.QueueLen())
			}
			if err := c.Fault(); err == nil || !strings.Contains(err.Error(), "placing j") {
				t.Fatalf("Fault() = %v, want the refused allocation of j", err)
			}
		})
	}
}
