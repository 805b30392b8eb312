package schedcore

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

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

// preemptAndPlace runs the preemption path for the blocked entry and, on
// success, performs the placed-decision bookkeeping that examine does
// for regular placements. It returns false when no viable victim set
// exists, leaving the caller to postpone the job as usual.
func (c *Core) preemptAndPlace(e *entry, now float64) bool {
	start := time.Now() //lint:ignore wallclock decision-latency instrumentation, the documented exception: elapsed feeds Stats only, never scheduling decisions
	d, ok := c.tryPreempt(e.job)
	elapsed := time.Since(start) //lint:ignore wallclock decision-latency instrumentation, the documented exception
	if !ok {
		return false
	}
	c.stats.Decisions++
	c.stats.DecisionTime += elapsed
	if elapsed > c.stats.MaxDecision {
		c.stats.MaxDecision = elapsed
	}
	c.stats.Placements++
	c.stats.Preemptions++
	c.stats.Evictions += len(d.Evictions)
	if d.SLOViolated {
		c.stats.SLOViolations++
	}
	d.Time = now
	d.Postponements = c.waited(e)
	c.decBuf = append(c.decBuf, d)
	return true
}

// tryPreempt evicts the best victim set for j and places it on the freed
// capacity. Victims are released from the cluster state immediately (so
// the rest of the round sees the new capacity) and staged for re-entry
// into the queue after the round.
func (c *Core) tryPreempt(j *job.Job) (Decision, bool) {
	victims, placed := c.selectVictims(j)
	if len(victims) == 0 {
		return Decision{}, false
	}
	evs := make([]Eviction, len(victims))
	for i, v := range victims {
		alloc := c.state.Allocation(v.ID)
		evs[i] = Eviction{Job: v, GPUs: append([]int(nil), alloc.GPUs...)}
		if err := c.state.Release(v.ID); err != nil {
			panic(fmt.Sprintf("schedcore: evicting %s: %v", v.ID, err))
		}
		delete(c.running, v.ID)
	}
	c.evictedInRound = true
	c.pendingRequeue = append(c.pendingRequeue, victims...)

	// Re-running the policy on the live state must reproduce the clone
	// evaluation bit for bit: placement reads only allocations, and Clone
	// copies allocations exactly. A divergence here
	// means the evaluation and commit saw different cluster states — a
	// bug, not a recoverable condition.
	placement, reason := c.place.attempt(j)
	if placement == nil || placement.Utility != placed {
		panic(fmt.Sprintf("schedcore: preemptive placement of %s diverged from its victim evaluation (reason %q)", j.ID, reason))
	}
	if err := c.state.Allocate(j.ID, placement.GPUs, placement.BusDemand, j.Traits()); err != nil {
		panic(fmt.Sprintf("schedcore: committing preemptive placement of %s: %v", j.ID, err))
	}
	c.running[j.ID] = j
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

// selectVictims picks the victim set for j: among the running jobs with
// strictly lower priority, the greedy prefix (in victimOrder) that frees
// enough GPUs for j's availableResources gate and whose post-eviction
// Eq. 1 placement scores best. For single-node jobs each machine
// proposes its own set (victims holding GPUs there, freed until the
// machine fits the job); multi-node jobs build one cluster-wide set.
// Candidate sets are evaluated on clones of the cluster state, so a
// rejected set has no side effects. Sets are compared by (highest victim
// priority, then victim count, then placement utility descending, then
// proposing machine) — evict from the lowest tier, as few jobs as
// possible, un-fragmenting the arrival the most. Returns the winning
// victims (eviction order) and the utility its evaluation achieved.
func (c *Core) selectVictims(j *job.Job) ([]*job.Job, float64) {
	cands := make([]*job.Job, 0, len(c.running))
	for _, v := range c.running {
		if v.Priority < j.Priority {
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
	// evaluate releases the victims on the pooled scratch clone and
	// re-runs the policy through the pooled victim placer. A feasible
	// set must both pass the capacity gate and actually place (bandwidth
	// and mapper constraints can still reject it). Pooling (CopyFrom
	// instead of Clone, one placer with persistent scratch buffers)
	// makes a rejected candidate prefix allocation-free.
	evaluate := func(victims []*job.Job, machine int) {
		if c.victimScratch == nil {
			c.victimScratch = c.state.Clone()
			c.victimPlacer = placer{policy: c.policy, mapper: c.mapper}
		} else {
			c.victimScratch.CopyFrom(c.state)
		}
		cs := c.victimScratch
		for _, v := range victims {
			if err := cs.Release(v.ID); err != nil {
				panic(fmt.Sprintf("schedcore: evaluating eviction of %s: %v", v.ID, err))
			}
		}
		c.victimPlacer.state = cs
		placement, _ := c.victimPlacer.attempt(j)
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
				continue // the machine fits without evictions; placement failed for other reasons eviction there cannot fix
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

// requeueVictims re-enqueues the round's evicted jobs after dispatch:
// each victim re-enters the queue as a fresh submission (new sequence
// number, postponement accounting restarted at the current round), in
// eviction order.
func (c *Core) requeueVictims() {
	for _, v := range c.pendingRequeue {
		c.enqueue(v)
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
