package difftest

import (
	"fmt"
	"testing"

	"gputopo/internal/schedcore"
	"gputopo/internal/schedcore/domains"
)

// shardedDomain is one scheduling domain of a sharded trace run: the
// real Core (whose cluster state backs the router's live free counters)
// and the naive reference over the same fleet slice.
type shardedDomain struct {
	core *schedcore.Core
	ref  *Reference
}

// runShardedTrace drives one trace through the sharded decomposition:
// the fleet splits hash-style into tr.Domains domains, submissions
// route through the live-counter Router, and each domain's Core must
// match a single-core reference driven with exactly the routed
// sub-trace. This is the differential proof that sharding changes which
// core schedules a job but never what that core decides.
func runShardedTrace(t *testing.T, tr *Trace) map[int]int {
	t.Helper()
	groups, err := domains.Spec{Strategy: "hash", N: tr.Domains}.Partition(tr.Machines, nil)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := schedcore.ParseDiscipline(tr.Discipline)
	if err != nil {
		t.Fatal(err)
	}
	doms := make([]*shardedDomain, len(groups))
	caps := make([]domains.Capacity, len(groups))
	for d, g := range groups {
		sub := tr.SubTopology(g)
		caps[d] = domains.CapacityOf(sub)
		ref, err := NewReference(tr.Policy, sub, disc, tr.Preempt)
		if err != nil {
			t.Fatal(err)
		}
		doms[d] = &shardedDomain{core: coreOver(t, tr, sub, disc), ref: ref}
	}
	router := domains.NewRouter(caps, func(d int) (int, int, int) {
		st := doms[d].core.State()
		return st.FreeGPUCount(), st.MaxFreeGPUs(), st.FreeMachines()
	})

	routed := map[int]int{}
	home := map[string]int{}
	for step, ev := range tr.Events {
		where := fmt.Sprintf("step %d", step)
		switch ev.Kind {
		case Submit:
			d, err := router.Route(ev.Job)
			if err != nil {
				t.Fatalf("%s %s: route %s: %v", tr, where, ev.Job.ID, err)
			}
			routed[d]++
			home[ev.Job.ID] = d
			if err := doms[d].ref.Submit(CloneJob(ev.Job)); err != nil {
				t.Fatalf("%s %s: domain %d reference submit %s: %v", tr, where, d, ev.Job.ID, err)
			}
			if err := doms[d].core.Submit(CloneJob(ev.Job)); err != nil {
				t.Fatalf("%s %s: domain %d core submit %s: %v", tr, where, d, ev.Job.ID, err)
			}
			checkRound(t, tr, fmt.Sprintf("%s domain %d", where, d), doms[d].ref, doms[d].core)
		case Remove:
			// The Remove follows the target to its home domain — the same
			// lookup the serving layer performs — and resolves there.
			d, ok := home[ev.Target]
			if !ok {
				continue
			}
			sd := doms[d]
			switch {
			case contains(sd.ref.Running(), ev.Target):
				if err := sd.ref.Release(ev.Target); err != nil {
					t.Fatalf("%s %s: domain %d reference release %s: %v", tr, where, d, ev.Target, err)
				}
				if err := sd.core.Release(ev.Target); err != nil {
					t.Fatalf("%s %s: domain %d core release %s: %v", tr, where, d, ev.Target, err)
				}
			case contains(sd.ref.Queued(), ev.Target):
				sd.ref.Withdraw(ev.Target)
				if !sd.core.Withdraw(ev.Target) {
					t.Fatalf("%s %s: domain %d core withdraw %s: not queued", tr, where, d, ev.Target)
				}
			default:
				delete(home, ev.Target)
				continue // evicted-then-removed or already gone
			}
			delete(home, ev.Target)
			checkRound(t, tr, fmt.Sprintf("%s domain %d", where, d), sd.ref, sd.core)
		}
	}

	// Drain every domain independently, as in the unsharded harness.
	for d, sd := range doms {
		drain(t, tr, fmt.Sprintf("drain domain %d", d), sd.ref, sd.core)
	}
	return routed
}

// TestShardedDifferentialTraces extends the differential harness to the
// sharded decomposition: every trace either generator marks with
// Domains > 1 runs through the router + per-domain cores against
// per-domain references. The coverage tail guards against vacuity —
// each family must shard a healthy fraction of its traces and actually
// route jobs to more than one domain.
func TestShardedDifferentialTraces(t *testing.T) {
	for _, fam := range families {
		n := fam.count()
		sharded, spread := 0, 0
		for seed := 0; seed < n; seed++ {
			tr := fam.gen(uint64(seed))
			if tr.Domains < 2 {
				continue
			}
			sharded++
			routed := runShardedTrace(t, tr)
			if len(routed) > 1 {
				spread++
			}
		}
		if sharded < n/8 {
			t.Errorf("%s traces: sharded traces underrepresented: %d of %d", fam.name, sharded, n)
		}
		if spread < sharded/2 {
			t.Errorf("%s traces: router barely spreads: only %d of %d sharded traces hit 2+ domains", fam.name, spread, sharded)
		}
	}
}
