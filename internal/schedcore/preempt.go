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
// job, the slot its allocation held (cluster.Allocation.Slot, the one its
// placement decision reported) and the GPU positions its eviction freed
// (sorted ascending, as the cluster state keeps them). GPUs is the
// released allocation's own list: read it, do not write it.
type Eviction struct {
	Job  *job.Job
	Slot int32
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

// tryPreempt evicts the best victim set for d's job and commits the
// placement its trial scored into d. The evictions and the placement are
// one step on the cluster state — Mark, release the victims in the order
// the trial released them (so the state the placement lands on is the one
// it was scored on), allocate, Commit — so the rest of the round sees the
// new capacity, and a preemptor may take a victim's slot. Any error rolls
// the step back and becomes the core's fault (Fault); d stays postponed.
// Only a committed step touches the running set, the victim index and the
// victims staged for re-entry into the queue after the round. When no
// victim set places the job, d stays as it was.
func (c *Core) tryPreempt(d *Decision) {
	j := d.Job
	victims, placement, err := c.selectVictims(j)
	if err == nil && placement == nil {
		return
	}
	var evs []Eviction
	var slot int32
	if err == nil {
		evs, slot, err = c.evictAndPlace(j, victims, placement)
	}
	if err != nil {
		c.fail(d, fmt.Errorf("schedcore: preempting for %s: %w", j.ID, err))
		return
	}
	for _, ev := range evs {
		c.removeRunning(ev.Slot)
		c.pendingRequeue = append(c.pendingRequeue, ev.Job)
	}
	c.evictedInRound = true
	c.addRunning(j, slot)
	d.place(placement, slot)
	d.Evictions = evs
}

// evictAndPlace is tryPreempt's step on the cluster state: inside one
// trial it releases the victims' slots in order and allocates p to j, and
// commits; on any error it rolls the trial back.
func (c *Core) evictAndPlace(j *job.Job, victims []int32, p *core.Placement) ([]Eviction, int32, error) {
	if err := c.state.Mark(); err != nil {
		return nil, -1, err
	}
	evs := make([]Eviction, len(victims))
	for i, vs := range victims {
		a := c.state.AllocationAt(vs)
		if err := c.state.ReleaseSlot(vs); err != nil {
			c.state.Rollback()
			return nil, -1, err
		}
		evs[i] = Eviction{Job: c.running[vs], Slot: vs, GPUs: a.GPUs}
	}
	slot, err := c.state.AllocateSlot(j.ID, p.GPUs, p.BusDemand, j.Traits())
	if err != nil {
		c.state.Rollback()
		return nil, -1, err
	}
	c.state.Commit()
	return evs, slot, nil
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

// addRunning registers a placed (or restored) job whose allocation took
// the slot: in the running set and in its priority's tier of the victim
// index. tiers ascends by priority and holds no empty tier, so "is
// anything of lower priority running?" is a look at tiers[0]. addRunning
// and removeRunning are the only writers of either table — the counts
// change exactly where running changes.
func (c *Core) addRunning(j *job.Job, slot int32) {
	if int(slot) >= len(c.running) {
		c.running = append(c.running, make([]*job.Job, int(slot)+1-len(c.running))...)
	}
	c.running[slot] = j
	i := 0
	for i < len(c.tiers) && c.tiers[i].prio < j.Priority {
		i++
	}
	if i == len(c.tiers) || c.tiers[i].prio != j.Priority {
		c.tiers = slices.Insert(c.tiers, i, tier{prio: j.Priority})
	}
	c.tiers[i].n++
}

// removeRunning drops the job in a released or evicted slot from the
// running set and the victim index. A slot the core never placed into (a
// test occupying GPUs on the state directly) is in neither.
func (c *Core) removeRunning(slot int32) {
	j := c.RunningAt(slot)
	if j == nil {
		return
	}
	c.running[slot] = nil
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
// running jobs, a running set whose IDs are not exactly the state's
// allocated jobs, or a running job filed under a slot its allocation does
// not hold. A test and diagnosis aid, like cluster.State.CheckInvariants;
// a core whose state was also allocated on directly fails the second
// check by design.
//
//lint:ignore deadcode oracle: schedcore tests and every difftest round recompute the core's indexes from scratch
func (c *Core) CheckInvariants() error {
	var recount Core
	for slot, j := range c.running {
		if j != nil {
			recount.addRunning(j, int32(slot))
		}
	}
	if !slices.Equal(c.tiers, recount.tiers) {
		return fmt.Errorf("schedcore: victim index holds {priority jobs} %v, the running set recounts to %v", c.tiers, recount.tiers)
	}
	if run, alloc := c.Running(), c.state.Jobs(); !slices.Equal(run, alloc) {
		return fmt.Errorf("schedcore: running set %v, cluster state allocates %v", run, alloc)
	}
	for slot, j := range c.running {
		if a := c.state.AllocationAt(int32(slot)); j != nil && (a == nil || a.JobID != j.ID) {
			return fmt.Errorf("schedcore: running set files %s under slot %d, which the cluster state does not give it", j.ID, slot)
		}
	}
	return nil
}

// victimSet is one evaluated candidate: the victims' slots in eviction
// order, the placement the arrival scored once they left, and the keys
// sets compare on.
type victimSet struct {
	victims   []int32
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
// victims' slots (eviction order) and the placement its trial scored, nil
// when no set places, or the error a trial failed with, which ends the
// search. The caller has checked victimsRunning: without a lower tier the
// search finds nothing, only slower.
func (c *Core) selectVictims(j *job.Job) ([]int32, *core.Placement, error) {
	var best victimSet
	// evaluate releases the victims inside a trial, runs the policy
	// through the core's own placer and rolls the releases back. A
	// feasible set must both pass the capacity gate and actually place
	// (bandwidth and mapper constraints can still reject it).
	evaluate := func(victims []int32, machine int) error {
		if err := c.state.Mark(); err != nil {
			return err
		}
		for _, slot := range victims {
			if err := c.state.ReleaseSlot(slot); err != nil {
				c.state.Rollback()
				return err
			}
		}
		placement, _ := c.place.attempt(j)
		c.state.Rollback()
		if placement == nil {
			return nil
		}
		// victims is in victimOrder, lowest tier first: the last one's
		// priority is the highest.
		s := victimSet{victims: victims, maxPrio: c.running[victims[len(victims)-1]].Priority, placement: placement, machine: machine}
		if best.placement == nil || s.better(&best) {
			// victims is a prefix of the caller's candidate buffer: the
			// winner keeps its own copy.
			s.victims = append(best.victims[:0], victims...)
			best = s
		}
		return nil
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
				v := c.RunningAt(r.Alloc.Slot)
				if v == nil || v.Priority >= j.Priority {
					continue
				}
				i := len(cands)
				for i > 0 && victimOrder(v, c.running[cands[i-1]]) < 0 {
					i--
				}
				cands, held = slices.Insert(cands, i, r.Alloc.Slot), slices.Insert(held, i, r.GPUs)
			}
			c.victimCands, c.victimHeld = cands, held
			for i, n := range held {
				freed += n
				if freed >= j.GPUs {
					if err := evaluate(cands[:i+1], m); err != nil {
						return nil, nil, err
					}
					break
				}
			}
		}
	} else {
		var cands []int32
		for slot, v := range c.running {
			if v != nil && v.Priority < j.Priority {
				cands = append(cands, int32(slot))
			}
		}
		slices.SortFunc(cands, func(a, b int32) int { return victimOrder(c.running[a], c.running[b]) })
		freed := c.state.FreeGPUCount()
		for i, slot := range cands {
			freed += len(c.state.AllocationAt(slot).GPUs)
			if freed >= j.GPUs {
				if err := evaluate(cands[:i+1], -1); err != nil {
					return nil, nil, err
				}
				break
			}
		}
	}
	return best.victims, best.placement, nil
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

// RunningAt returns the job the core placed into the slot
// (cluster.Allocation.Slot), nil when there is none: a driver reads a
// running job's spec here instead of keeping its own job index.
func (c *Core) RunningAt(slot int32) *job.Job {
	if int(slot) < len(c.running) {
		return c.running[slot]
	}
	return nil
}

// Running returns the IDs of the jobs the core has placed and not yet
// released, sorted — a reporting accessor for drivers and tests.
func (c *Core) Running() []string {
	ids := make([]string, 0, len(c.running))
	for _, j := range c.running {
		if j != nil {
			ids = append(ids, j.ID)
		}
	}
	sort.Strings(ids)
	return ids
}
