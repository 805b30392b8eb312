package difftest

import (
	"fmt"
	"reflect"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/jobgraph"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/topology"
)

// coreOver builds the real Core for the trace's configuration over a
// fresh state of topo (the trace's whole fleet, or one domain's slice of
// it). There is one Core to build: the wake-up index and the class fold
// are not options, so the configuration that ships is the only one there
// is.
func coreOver(t *testing.T, tr *Trace, topo *topology.Topology, disc schedcore.QueueDiscipline) *schedcore.Core {
	t.Helper()
	mapper, err := core.NewMapper(profile.Generate(topo, topo.NumGPUs()), core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	c := schedcore.New(tr.Policy, cluster.NewState(topo), mapper, schedcore.WithQueueDiscipline(disc))
	c.SetPreemption(tr.Preempt)
	return c
}

// reduce projects a Core round onto the reference's Placement identity:
// placement decisions only, in decision order, with their waited-round
// counts and eviction lists. Postponement records are not compared one
// by one — the wake-up index legitimately materializes none for parked
// jobs — but their running total is (checkRound).
func reduce(decs []*schedcore.Decision) []Placement {
	var out []Placement
	for _, d := range decs {
		if d.Postponed {
			continue
		}
		p := Placement{JobID: d.Job.ID, GPUs: d.Placement.GPUs, Utility: d.Placement.Utility, Waited: d.Postponements}
		for _, ev := range d.Evictions {
			p.Evictions = append(p.Evictions, EvictionRec{JobID: ev.Job.ID, GPUs: ev.GPUs})
		}
		out = append(out, p)
	}
	return out
}

func queuedIDs(c *schedcore.Core) []string {
	q := c.Queued()
	ids := make([]string, len(q))
	for i, j := range q {
		ids[i] = j.ID
	}
	return ids
}

// counters projects the Core's Stats onto its six deterministic
// counters, the ones the reference keeps.
func counters(s schedcore.Stats) schedcore.Stats {
	return schedcore.Stats{
		Decisions:     s.Decisions,
		Placements:    s.Placements,
		Postponements: s.Postponements,
		SLOViolations: s.SLOViolations,
		Preemptions:   s.Preemptions,
		Evictions:     s.Evictions,
	}
}

// checkRound runs one scheduling round on both sides and compares the
// placements (with each one's waited-round count), the queue order, the
// running set and the six deterministic counters (decisions, placements,
// postponements, SLO violations, preemptions, evictions), then checks the
// invariants of the core's cluster state and of the core's own
// running-set tables. The postponement total is what pins the index's
// bulk accounting: a parked job gets no decision record, so its
// postponement exists only in that counter.
func checkRound(t *testing.T, tr *Trace, where string, ref *Reference, c *schedcore.Core) {
	t.Helper()
	want := ref.Schedule()
	got := reduce(c.Schedule())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %s: placements diverged\n ref:  %+v\n core: %+v", tr, where, want, got)
	}
	if gotQ, wantQ := queuedIDs(c), ref.Queued(); !reflect.DeepEqual(gotQ, wantQ) {
		t.Fatalf("%s %s: queue diverged\n ref:  %v\n core: %v", tr, where, wantQ, gotQ)
	}
	if gotR, wantR := c.Running(), ref.Running(); !reflect.DeepEqual(gotR, wantR) {
		t.Fatalf("%s %s: running set diverged\n ref:  %v\n core: %v", tr, where, wantR, gotR)
	}
	if got, want := counters(c.Stats()), ref.Stats(); got != want {
		t.Fatalf("%s %s: counters diverged\n ref:  %+v\n core: %+v", tr, where, want, got)
	}
	// The reference scores with the mapper's own arithmetic, resident
	// tables included, so a table gone stale would mislead both sides
	// alike: hold the core's live state to its owner table directly.
	if err := c.State().CheckInvariants(); err != nil {
		t.Fatalf("%s %s: %v", tr, where, err)
	}
	// Likewise the victim index: a count gone wrong only ever makes the
	// core skip a search the reference runs, which shows as a divergence
	// rounds later, if at all.
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("%s %s: %v", tr, where, err)
	}
}

// drain keeps scheduling over releases until everything finishes, so
// traces also cover the tail where parked jobs wake as capacity frees.
func drain(t *testing.T, tr *Trace, where string, ref *Reference, c *schedcore.Core) {
	t.Helper()
	for guard := 0; ; guard++ {
		if guard > 10*len(tr.Events) {
			t.Fatalf("%s %s: did not converge: queue=%v running=%v", tr, where, ref.Queued(), ref.Running())
		}
		run := ref.Running()
		if len(run) == 0 && len(ref.Queued()) == 0 {
			return
		}
		if len(run) > 0 {
			id := run[0]
			if err := ref.Release(id); err != nil {
				t.Fatalf("%s %s: reference release %s: %v", tr, where, id, err)
			}
			if err := c.Release(id); err != nil {
				t.Fatalf("%s %s: core release %s: %v", tr, where, id, err)
			}
		} else {
			// Nothing runs but jobs still wait: they can never place (e.g.
			// a multi-node job larger than the cluster). Withdraw the head.
			id := ref.Queued()[0]
			ref.Withdraw(id)
			if !c.Withdraw(id) {
				t.Fatalf("%s %s: core withdraw %s: not queued", tr, where, id)
			}
		}
		checkRound(t, tr, where, ref, c)
	}
}

// runTrace drives one trace through the reference and the Core,
// comparing them after every round.
func runTrace(t *testing.T, tr *Trace) {
	t.Helper()
	disc, err := schedcore.ParseDiscipline(tr.Discipline)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReference(tr.Policy, tr.Topology, disc, tr.Preempt)
	if err != nil {
		t.Fatal(err)
	}
	c := coreOver(t, tr, tr.Topology, disc)

	for step, ev := range tr.Events {
		where := fmt.Sprintf("step %d", step)
		switch ev.Kind {
		case Submit:
			if err := ref.Submit(CloneJob(ev.Job)); err != nil {
				t.Fatalf("%s %s: reference submit %s: %v", tr, where, ev.Job.ID, err)
			}
			if err := c.Submit(CloneJob(ev.Job)); err != nil {
				t.Fatalf("%s %s: core submit %s: %v", tr, where, ev.Job.ID, err)
			}
		case Remove:
			// Resolve against the reference; the equality invariant makes
			// the resolution identical on the core, and the checks below
			// fail loudly if it ever is not.
			switch {
			case contains(ref.Running(), ev.Target):
				if err := ref.Release(ev.Target); err != nil {
					t.Fatalf("%s %s: reference release %s: %v", tr, where, ev.Target, err)
				}
				if err := c.Release(ev.Target); err != nil {
					t.Fatalf("%s %s: core release %s: %v", tr, where, ev.Target, err)
				}
			case contains(ref.Queued(), ev.Target):
				ref.Withdraw(ev.Target)
				if !c.Withdraw(ev.Target) {
					t.Fatalf("%s %s: core withdraw %s: not queued", tr, where, ev.Target)
				}
			default:
				continue // already released or withdrawn earlier
			}
		}
		checkRound(t, tr, where, ref, c)
	}
	drain(t, tr, "drain", ref, c)
}

// replay drives the trace's events through the reference alone, handing
// each scheduling round's placements to round.
func replay(t *testing.T, tr *Trace, ref *Reference, round func([]Placement)) {
	t.Helper()
	for _, ev := range tr.Events {
		switch ev.Kind {
		case Submit:
			if err := ref.Submit(CloneJob(ev.Job)); err != nil {
				t.Fatal(err)
			}
		case Remove:
			if contains(ref.Running(), ev.Target) {
				if err := ref.Release(ev.Target); err != nil {
					t.Fatal(err)
				}
			} else {
				ref.Withdraw(ev.Target)
			}
		}
		round(ref.Schedule())
	}
}

func contains(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// family is one seeded trace population.
type family struct {
	name        string // subtest name prefix, followed by the seed
	gen         func(seed uint64) *Trace
	full, short int // traces per run, and per -short run
}

// families: NewTrace's one- and two-machine fleets, and NewFleetTrace's
// six-to-eight-machine fleets with custom communication graphs, where a
// candidate sweep has equal-shape machines to fold.
var families = []family{
	{"seed", NewTrace, 1000, 100},
	{"fleet", NewFleetTrace, 300, 40},
}

func (f family) count() int {
	if testing.Short() {
		return f.short
	}
	return f.full
}

// TestDifferentialTraces is the harness: ≥1000 seeded random traces,
// each run through the naive reference and the real Core, with
// placements, waited-round counts, queue order, running sets and the
// six deterministic Stats counters compared after every scheduling round. Family and
// seed are the subtest names, so a failure reproduces with
// -run 'TestDifferentialTraces/seed0042' (or /fleet0042).
func TestDifferentialTraces(t *testing.T) {
	for _, fam := range families {
		for seed := 0; seed < fam.count(); seed++ {
			tr := fam.gen(uint64(seed))
			t.Run(fmt.Sprintf("%s%04d", fam.name, seed), func(t *testing.T) {
				t.Parallel()
				runTrace(t, tr)
			})
		}
	}
}

// TestTraceCoverage guards the harness against vacuity: each seeded
// trace population must actually exercise every policy, both
// disciplines, preemption with real evictions, and multi-node jobs —
// otherwise a regression in one of those paths could slip through a
// green differential run. The fleet family must besides cover each of
// its fleets and carry custom communication graphs.
func TestTraceCoverage(t *testing.T) {
	for _, fam := range families {
		n := fam.count()
		policies := map[schedcore.Policy]int{}
		fleets := map[string]int{}
		var priority, preempt, multiNode, customGraph, evictions int
		for seed := 0; seed < n; seed++ {
			tr := fam.gen(uint64(seed))
			policies[tr.Policy]++
			fleets[tr.TopoName]++
			if tr.Discipline == "priority" {
				priority++
			}
			if tr.Preempt {
				preempt++
			}
			for _, ev := range tr.Events {
				if ev.Kind != Submit {
					continue
				}
				if !ev.Job.SingleNode {
					multiNode++
				}
				if j := ev.Job; j.CommGraph() != jobgraph.SharedAllToAll(j.GPUs, j.Class().CommWeight()) {
					customGraph++
				}
			}
			if !tr.Preempt {
				continue
			}
			disc, err := schedcore.ParseDiscipline(tr.Discipline)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewReference(tr.Policy, tr.Topology, disc, tr.Preempt)
			if err != nil {
				t.Fatal(err)
			}
			replay(t, tr, ref, func(round []Placement) {
				for _, p := range round {
					evictions += len(p.Evictions)
				}
			})
		}
		for _, pol := range []schedcore.Policy{schedcore.FCFS, schedcore.BestFit, schedcore.TopoAware, schedcore.TopoAwareP} {
			if policies[pol] < n/20 {
				t.Errorf("%s traces: policy %s underrepresented: %d of %d traces", fam.name, pol, policies[pol], n)
			}
		}
		if priority < n/4 || preempt < n/4 {
			t.Errorf("%s traces: config mix too thin: priority=%d preempt=%d of %d", fam.name, priority, preempt, n)
		}
		if multiNode < n {
			t.Errorf("%s traces: multi-node submissions too rare: %d across %d traces", fam.name, multiNode, n)
		}
		if evictions < n/20 {
			t.Errorf("%s traces: preemption path barely exercised: %d evictions across %d traces", fam.name, evictions, n)
		}
		if fam.name != "fleet" {
			continue
		}
		for _, fleet := range []string{"minsky:8", "pcie:6", "mix[minsky:3+dgx1:1+pcie:3]"} {
			if fleets[fleet] < n/6 {
				t.Errorf("fleet %s underrepresented: %d of %d traces", fleet, fleets[fleet], n)
			}
		}
		if customGraph < 2*n {
			t.Errorf("custom communication graphs too rare: %d across %d traces", customGraph, n)
		}
	}
}
