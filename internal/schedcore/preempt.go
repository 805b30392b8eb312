package schedcore

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"gputopo/internal/core"
	"gputopo/internal/job"
)

// Eviction records one victim displaced by a preemptive placement: the
// job and the GPU positions its eviction freed (sorted ascending, as the
// cluster state keeps them).
type Eviction struct {
	Job  *job.Job
	GPUs []int
}

// SetPreemption toggles topology-aware preemption (off by default). When
// enabled, a preemption-eligible job (Priority > 0) that cannot place
// may evict strictly lower-priority running jobs: the core picks the
// victim set whose freed GPUs yield the best Eq. 1 placement for the
// arriving job, commits the placement, and re-enqueues the victims. With
// the switch off — or with every job at the default priority 0 — no code
// path changes, which is what keeps the priority-off artifacts
// byte-identical.
func (c *Core) SetPreemption(enabled bool) { c.preemptOn = enabled }

// preemptEligible reports whether j may attempt preemption: the path is
// enabled and the job's priority is positive. Restricting eligibility to
// positive priorities is what keeps the wake-up index sound — only
// non-eligible jobs ever park, so a parked job's fate truly depends on
// free capacity alone, while eligible jobs stay on the active list and
// re-check their eviction opportunity every round exactly like a full
// queue walk would.
func (c *Core) preemptEligible(j *job.Job) bool { return c.preemptOn && j.Priority > 0 }

// tryPreempt evicts the best victim set for j and commits the placement
// its trial scored. Victims are released from the cluster state
// immediately (so the rest of the round sees the new capacity), in the
// order the trial released them — so the state the placement lands on is
// the one it was scored on — and staged for re-entry into the queue after
// the round.
func (c *Core) tryPreempt(j *job.Job) (Decision, bool) {
	victims, placement := c.selectVictims(j)
	if placement == nil {
		return Decision{}, false
	}
	evs := make([]Eviction, len(victims))
	for i, v := range victims {
		alloc := c.state.Allocation(v.ID)
		evs[i] = Eviction{Job: v, GPUs: append([]int(nil), alloc.GPUs...)}
		if err := c.state.Release(v.ID); err != nil {
			panic(fmt.Sprintf("schedcore: evicting %s: %v", v.ID, err))
		}
		c.removeRunning(v.ID)
	}
	c.evictedInRound = true
	c.pendingRequeue = append(c.pendingRequeue, victims...)
	if err := c.state.Allocate(j.ID, placement.GPUs, placement.BusDemand, j.Traits()); err != nil {
		panic(fmt.Sprintf("schedcore: committing preemptive placement of %s: %v", j.ID, err))
	}
	c.addRunning(j)
	return Decision{
		Job:         j,
		Placement:   placement,
		SLOViolated: placement.Utility < j.MinUtility,
		Evictions:   evs,
	}, true
}

// victimOrder ranks eviction candidates: lowest priority first (evict
// the least important tier), youngest arrival first within a tier (the
// job that has run least loses least progress), job ID as the final
// deterministic tie-break.
func victimOrder(a, b *job.Job) int {
	if a.Priority != b.Priority {
		return a.Priority - b.Priority
	}
	if a.Arrival != b.Arrival {
		if a.Arrival > b.Arrival {
			return -1
		}
		return 1
	}
	return strings.Compare(a.ID, b.ID)
}

// tier is one entry of the victim index: n running jobs hold priority
// prio.
type tier struct{ prio, n int }

// addRunning registers a placed (or restored) job: in the running set and
// in its priority's tier of the victim index. tiers ascends by priority
// and holds no empty tier, so "is anything of lower priority running?" is
// a look at tiers[0]. addRunning and removeRunning are the only writers of
// either table — the counts change exactly where running changes.
func (c *Core) addRunning(j *job.Job) {
	c.running[j.ID] = j
	i := 0
	for i < len(c.tiers) && c.tiers[i].prio < j.Priority {
		i++
	}
	if i == len(c.tiers) || c.tiers[i].prio != j.Priority {
		c.tiers = slices.Insert(c.tiers, i, tier{prio: j.Priority})
	}
	c.tiers[i].n++
}

// removeRunning drops a released or evicted job from the running set and
// the victim index. An ID the core never placed (a test occupying GPUs on
// the state directly) is in neither.
func (c *Core) removeRunning(id string) {
	j, ok := c.running[id]
	if !ok {
		return
	}
	delete(c.running, id)
	i := slices.IndexFunc(c.tiers, func(t tier) bool { return t.prio == j.Priority })
	if c.tiers[i].n--; c.tiers[i].n == 0 {
		c.tiers = slices.Delete(c.tiers, i, i+1)
	}
}

// victimsRunning reports whether any running job has a priority strictly
// below prio — whether a victim search for such a job has candidates at
// all.
func (c *Core) victimsRunning(prio int) bool {
	return len(c.tiers) > 0 && c.tiers[0].prio < prio
}

// CheckInvariants recounts the victim index from the running set and the
// running set from the cluster state, and reports the first divergence:
// tiers that are not the ascending, non-empty per-priority counts of the
// running jobs, or a running set whose IDs are not exactly the state's
// allocated jobs. A test and diagnosis aid, like
// cluster.State.CheckInvariants; a core whose state was also allocated on
// directly fails the second check by design.
//
//lint:ignore deadcode oracle: schedcore tests and every difftest round recompute the core's indexes from scratch
func (c *Core) CheckInvariants() error {
	recount := Core{running: map[string]*job.Job{}}
	for _, j := range c.running {
		recount.addRunning(j)
	}
	if !slices.Equal(c.tiers, recount.tiers) {
		return fmt.Errorf("schedcore: victim index holds {priority jobs} %v, the running set recounts to %v", c.tiers, recount.tiers)
	}
	if run, alloc := c.Running(), c.state.Jobs(); !slices.Equal(run, alloc) {
		return fmt.Errorf("schedcore: running set %v, cluster state allocates %v", run, alloc)
	}
	return nil
}

// victimSet is one evaluated candidate: the victims in eviction order, the
// placement the arrival scored once they left, and the keys sets compare
// on.
type victimSet struct {
	victims   []*job.Job
	maxPrio   int
	placement *core.Placement
	machine   int
}

// better orders candidate sets: evict from the lowest tier, as few jobs as
// possible, un-fragmenting the arrival the most, the lowest proposing
// machine on a full tie.
func (s *victimSet) better(b *victimSet) bool {
	if s.maxPrio != b.maxPrio {
		return s.maxPrio < b.maxPrio
	}
	if len(s.victims) != len(b.victims) {
		return len(s.victims) < len(b.victims)
	}
	if s.placement.Utility != b.placement.Utility {
		return s.placement.Utility > b.placement.Utility
	}
	return s.machine < b.machine
}

// selectVictims picks the victim set for j: among the running jobs with
// strictly lower priority, the greedy prefix (in victimOrder) that frees
// enough GPUs for j's availableResources gate and whose post-eviction
// Eq. 1 placement scores best. For single-node jobs each machine
// proposes its own set — a job is a candidate on machine m iff it has a
// row in the state's Residents(m) and a strictly lower priority, freed
// until the machine fits the job; multi-node jobs build one cluster-wide
// set. Each candidate set is evaluated inside a trial on the live state
// (cluster.State.Mark … Rollback), so a rejected set leaves the state as
// it found it. Sets are compared by victimSet.better. Returns the winning
// victims (eviction order) and the placement its trial scored, nil when
// no set places. The caller has checked victimsRunning: without a lower
// tier the search finds nothing, only slower.
func (c *Core) selectVictims(j *job.Job) ([]*job.Job, *core.Placement) {
	var best victimSet
	// evaluate releases the victims inside a trial, runs the policy
	// through the core's own placer and rolls the releases back. A
	// feasible set must both pass the capacity gate and actually place
	// (bandwidth and mapper constraints can still reject it).
	evaluate := func(victims []*job.Job, machine int) {
		err := c.state.Mark()
		for _, v := range victims {
			if err == nil {
				err = c.state.Release(v.ID)
			}
		}
		if err != nil {
			panic(fmt.Sprintf("schedcore: evaluating evictions for %s: %v", j.ID, err))
		}
		placement, _ := c.place.attempt(j)
		c.state.Rollback()
		if placement == nil {
			return
		}
		// victims is in victimOrder, lowest tier first: the last one's
		// priority is the highest.
		s := victimSet{victims: victims, maxPrio: victims[len(victims)-1].Priority, placement: placement, machine: machine}
		if best.placement == nil || s.better(&best) {
			// victims is a prefix of the caller's candidate buffer: the
			// winner keeps its own copy.
			s.victims = append(best.victims[:0], victims...)
			best = s
		}
	}

	if j.SingleNode {
		for m := 0; m < c.state.Topology().NumMachines(); m++ {
			freed := c.state.FreeCountOnMachine(m)
			if freed >= j.GPUs {
				continue // the machine fits without evictions; placement failed for other reasons eviction there cannot fix
			}
			// The machine's candidates, in victimOrder, beside what each
			// holds here. Residents rows ascend by job ID and victimOrder is
			// total, so this is the cluster-wide ranking filtered to m.
			cands, held := c.victimCands[:0], c.victimHeld[:0]
			for _, r := range c.state.Residents(m) {
				v, ok := c.running[r.Alloc.JobID]
				if !ok || v.Priority >= j.Priority {
					continue
				}
				i := len(cands)
				for i > 0 && victimOrder(v, cands[i-1]) < 0 {
					i--
				}
				cands, held = slices.Insert(cands, i, v), slices.Insert(held, i, r.GPUs)
			}
			c.victimCands, c.victimHeld = cands, held
			for i, n := range held {
				freed += n
				if freed >= j.GPUs {
					evaluate(cands[:i+1], m)
					break
				}
			}
		}
		clear(c.victimCands[:cap(c.victimCands)]) // hold no job past the search
	} else {
		cands := make([]*job.Job, 0, len(c.running))
		for _, v := range c.running {
			if v.Priority < j.Priority {
				cands = append(cands, v)
			}
		}
		slices.SortFunc(cands, victimOrder)
		freed := c.state.FreeGPUCount()
		for i, v := range cands {
			freed += len(c.state.Allocation(v.ID).GPUs)
			if freed >= j.GPUs {
				evaluate(cands[:i+1], -1)
				break
			}
		}
	}
	return best.victims, best.placement
}

// requeueVictims re-enqueues the round's evicted jobs after dispatch:
// each victim re-enters the queue as a fresh submission (new sequence
// number, postponement accounting restarted at the current round), in
// eviction order.
func (c *Core) requeueVictims() {
	for _, v := range c.pendingRequeue {
		c.enqueue(QueuedEntry{Job: v})
	}
	c.pendingRequeue = c.pendingRequeue[:0]
}

// Running returns the IDs of the jobs the core has placed and not yet
// released, sorted — a reporting accessor for drivers and tests.
func (c *Core) Running() []string {
	ids := make([]string, 0, len(c.running))
	for id := range c.running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
