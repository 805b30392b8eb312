// Package difftest is the differential proving ground for the scheduling
// core: a deliberately naive reference scheduler that re-implements the
// §4.4 queue mechanics from scratch — full stable re-sort and full queue
// walk every round, no wake-up index, no class fold, no incremental
// anything — plus a seeded randomized trace generator. The harness
// (diff_test.go) drives thousands of traces through the reference and
// through the real Core and demands placement-for-placement equality,
// down to the postponement accounting.
//
// The reference shares exactly one piece of code with the Core: the
// placement-policy arithmetic, via the exported schedcore.Placer facade.
// That sharing is deliberate — Eq. 1 scoring is covered by its own unit
// tests, and re-deriving the mapper here would make every diff chase
// floating-point deltas instead of the queue, wake-index, class-fold
// and preemption bookkeeping this harness exists to falsify. The
// reference's placer (schedcore.NewPlacer) evaluates every host, so the
// Core's one-host-per-fingerprint sweep is always compared against the
// per-machine one.
package difftest

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/topology"
)

// Placement is one committed placement of a reference round, reduced to
// the deterministic identity the harness compares.
type Placement struct {
	JobID   string
	GPUs    []int
	Utility float64
	// Waited is the number of rounds that examined the job and left it
	// queued before this placement.
	Waited int
	// Evictions lists the victims this placement preempted, in eviction
	// order, as (victim ID, freed GPU positions) pairs.
	Evictions []EvictionRec
}

// EvictionRec is one evicted victim of a preemptive placement.
type EvictionRec struct {
	JobID string
	GPUs  []int
}

// refEntry is one queued job plus its submission sequence (the
// discipline's tie-break) and the rounds it has been postponed.
type refEntry struct {
	job    *job.Job
	seq    int
	waited int
}

// Reference is the naive scheduler. It maintains a single slice as the
// wait queue, stably re-sorts it from scratch at every Schedule call, and
// walks it front to back with no memoization whatsoever.
type Reference struct {
	policy  schedcore.Policy
	state   *cluster.State
	mapper  *core.Mapper
	placer  *schedcore.Placer
	disc    schedcore.QueueDiscipline
	preempt bool

	queue   []refEntry
	running map[string]*job.Job
	seq     int
	// postponements counts, over all rounds, the jobs a round examined
	// and left queued.
	postponements int
	// attempted, when set, sees every job the reference scores placements
	// for, with the state it scores them on: the live one or a trial
	// clone.
	attempted func(j *job.Job, st *cluster.State)
}

// NewReference builds a reference scheduler over a fresh state for the
// topology, mirroring the substrate construction the Core's drivers use.
//
//lint:ignore deadcode oracle: the differential harness compares the Core against this reference
func NewReference(policy schedcore.Policy, topo *topology.Topology, disc schedcore.QueueDiscipline, preempt bool) (*Reference, error) {
	mapper, err := core.NewMapper(profile.Generate(topo, topo.NumGPUs()), core.DefaultWeights())
	if err != nil {
		return nil, err
	}
	st := cluster.NewState(topo)
	return &Reference{
		policy:  policy,
		state:   st,
		mapper:  mapper,
		placer:  schedcore.NewPlacer(policy, st, mapper),
		disc:    disc,
		preempt: preempt,
		running: map[string]*job.Job{},
	}, nil
}

// Submit enqueues a job.
//
//lint:ignore deadcode oracle: the differential harness drives the reference through it
func (r *Reference) Submit(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	r.queue = append(r.queue, refEntry{job: j, seq: r.seq})
	r.seq++
	return nil
}

// Release frees a running job's allocation.
//
//lint:ignore deadcode oracle: the differential harness drives the reference through it
func (r *Reference) Release(id string) error {
	if err := r.state.Release(id); err != nil {
		return err
	}
	delete(r.running, id)
	return nil
}

// Withdraw removes a still-queued job; false when none has the ID.
//
//lint:ignore deadcode oracle: the differential harness drives the reference through it
func (r *Reference) Withdraw(id string) bool {
	for i := range r.queue {
		if r.queue[i].job.ID == id {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return true
		}
	}
	return false
}

// Queued returns the waiting job IDs in discipline order.
//
//lint:ignore deadcode oracle: the differential harness compares queue order through it
func (r *Reference) Queued() []string {
	r.sortQueue()
	ids := make([]string, len(r.queue))
	for i, e := range r.queue {
		ids[i] = e.job.ID
	}
	return ids
}

// Postponements returns the running total of (job, round) pairs in which
// a round examined the job and left it queued.
//
//lint:ignore deadcode oracle: the differential harness compares postponement totals through it
func (r *Reference) Postponements() int { return r.postponements }

// Running returns the running job IDs, sorted.
//
//lint:ignore deadcode oracle: the differential harness compares running sets through it
func (r *Reference) Running() []string {
	ids := make([]string, 0, len(r.running))
	for id := range r.running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// sortQueue re-sorts the whole queue, stably, from scratch — the naive
// counterpart of the Core's insert-ordered queue and wake-up index.
// Stability makes submission order the tie-break, as specified.
func (r *Reference) sortQueue() {
	sort.SliceStable(r.queue, func(i, k int) bool {
		return r.disc.Less(r.queue[i].job, r.queue[k].job)
	})
}

// Schedule runs one naive round of Algorithm 1: sort, walk everything,
// attempt everything eligible, requeue any victims at the end. Returns
// the round's placements in decision order.
//
//lint:ignore deadcode oracle: the differential harness compares every round through it
func (r *Reference) Schedule() []Placement {
	r.sortQueue()
	var placements []Placement
	var victims []*job.Job
	keep := r.queue[:0]
	blocked := false
	for _, e := range r.queue {
		if blocked {
			keep = append(keep, e)
			continue
		}
		p, evs, ok := r.examine(e.job, &victims)
		if !ok {
			e.waited++
			r.postponements++
			keep = append(keep, e)
			// The in-order policies preserve FIFO fairness: the first job
			// that fails to place blocks everything behind it.
			if r.policy != schedcore.TopoAwareP {
				blocked = true
			}
			continue
		}
		placements = append(placements, Placement{JobID: e.job.ID, GPUs: p.GPUs, Utility: p.Utility, Waited: e.waited, Evictions: evs})
	}
	r.queue = keep
	for _, v := range victims {
		r.queue = append(r.queue, refEntry{job: v, seq: r.seq})
		r.seq++
	}
	return placements
}

func (r *Reference) eligible(j *job.Job) bool { return r.preempt && j.Priority > 0 }

// attempt asks pl, a placer over st, to place j.
func (r *Reference) attempt(pl *schedcore.Placer, st *cluster.State, j *job.Job) (*core.Placement, string) {
	if r.attempted != nil {
		r.attempted(j, st)
	}
	return pl.Attempt(j)
}

// examine attempts one job: the availableResources gate, the placement
// policy, and — for eligible blocked jobs — the preemption path. On
// success the allocation is committed and any victims are appended to
// *victims for post-round requeue.
func (r *Reference) examine(j *job.Job, victims *[]*job.Job) (*core.Placement, []EvictionRec, bool) {
	enough := r.state.MaxFreeGPUs() >= j.GPUs
	if !j.SingleNode {
		enough = r.state.FreeGPUCount() >= j.GPUs
	}
	if enough {
		p, reason := r.attempt(r.placer, r.state, j)
		if p != nil {
			r.commit(j, p)
			return p, nil, true
		}
		if reason != "no-capacity" || !r.eligible(j) {
			return nil, nil, false
		}
	} else if !r.eligible(j) {
		return nil, nil, false
	}
	return r.tryPreempt(j, victims)
}

func (r *Reference) commit(j *job.Job, p *core.Placement) {
	if err := r.state.Allocate(j.ID, p.GPUs, p.BusDemand, j.Traits()); err != nil {
		panic(fmt.Sprintf("difftest: committing %s: %v", j.ID, err))
	}
	r.running[j.ID] = j
}

// tryPreempt is the naive mirror of the Core's victim selection, written
// against the exported state/placer APIs only: rank candidates by
// (priority asc, arrival desc, ID), grow greedy prefixes (per machine
// for single-node jobs, cluster-wide otherwise), evaluate each candidate
// set on a clone, keep the best by (max victim priority, count, utility
// desc, machine), then evict on the live state and place.
func (r *Reference) tryPreempt(j *job.Job, victims *[]*job.Job) (*core.Placement, []EvictionRec, bool) {
	cands := make([]*job.Job, 0, len(r.running))
	for _, v := range r.running {
		if v.Priority < j.Priority {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return nil, nil, false
	}
	slices.SortFunc(cands, func(a, b *job.Job) int {
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
	})

	type scored struct {
		set     []*job.Job
		maxPrio int
		utility float64
		machine int
	}
	var best *scored
	evaluate := func(set []*job.Job, machine int) {
		cs := r.state.Clone()
		for _, v := range set {
			if err := cs.Release(v.ID); err != nil {
				panic(fmt.Sprintf("difftest: evaluating eviction of %s: %v", v.ID, err))
			}
		}
		p, _ := r.attempt(schedcore.NewPlacer(r.policy, cs, r.mapper), cs, j)
		if p == nil {
			return
		}
		s := &scored{set: set, maxPrio: set[0].Priority, utility: p.Utility, machine: machine}
		for _, v := range set {
			if v.Priority > s.maxPrio {
				s.maxPrio = v.Priority
			}
		}
		if best == nil ||
			s.maxPrio < best.maxPrio ||
			(s.maxPrio == best.maxPrio && (len(s.set) < len(best.set) ||
				(len(s.set) == len(best.set) && (s.utility > best.utility ||
					(s.utility == best.utility && s.machine < best.machine))))) {
			best = s
		}
	}

	if j.SingleNode {
		topo := r.state.Topology()
		for m := 0; m < topo.NumMachines(); m++ {
			freed := r.state.FreeCountOnMachine(m)
			if freed >= j.GPUs {
				continue
			}
			var set []*job.Job
			for _, v := range cands {
				n := 0
				for _, pos := range r.state.Allocation(v.ID).GPUs {
					if topo.GPU(pos).Machine == m {
						n++
					}
				}
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
		freed := r.state.FreeGPUCount()
		var set []*job.Job
		for _, v := range cands {
			set = append(set, v)
			freed += len(r.state.Allocation(v.ID).GPUs)
			if freed >= j.GPUs {
				evaluate(slices.Clone(set), -1)
				break
			}
		}
	}
	if best == nil {
		return nil, nil, false
	}

	evs := make([]EvictionRec, len(best.set))
	for i, v := range best.set {
		evs[i] = EvictionRec{JobID: v.ID, GPUs: append([]int(nil), r.state.Allocation(v.ID).GPUs...)}
		if err := r.state.Release(v.ID); err != nil {
			panic(fmt.Sprintf("difftest: evicting %s: %v", v.ID, err))
		}
		delete(r.running, v.ID)
	}
	*victims = append(*victims, best.set...)
	p, reason := r.attempt(r.placer, r.state, j)
	if p == nil {
		panic(fmt.Sprintf("difftest: preemptive placement of %s failed after eviction (reason %q)", j.ID, reason))
	}
	r.commit(j, p)
	return p, evs, true
}
