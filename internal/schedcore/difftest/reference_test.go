// The differential proving ground for the scheduling core: a
// deliberately naive reference scheduler that re-implements the §4.4
// queue mechanics from scratch — full stable re-sort and full queue walk
// every round, no wake-up index, no class fold, no incremental anything —
// plus a seeded randomized trace generator (trace_test.go). The harness
// (diff_test.go) drives thousands of traces through the reference and
// through the real Core and demands placement-for-placement equality,
// down to the decision, postponement and preemption counters.
//
// The reference shares two things with the Core: the DRB mapper with its
// Eq. 2 scoring (core.Mapper), and the FCFS and Best-Fit baselines via
// the exported schedcore.Placer facade. Both are covered by their own
// unit tests, and re-deriving them here would make every diff chase
// floating-point deltas instead of the queue, wake-index, class-sweep
// and preemption bookkeeping this harness exists to falsify. Its
// TOPO-AWARE placement (Attempt) is its own per-machine sweep, so the
// Core's class sweep is compared against code it shares nothing with.
// It is test code of its own package, so it reaches the Core only through
// its exported API, and nothing it holds ships with the product.

package difftest

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
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

// refEntry is one queued job plus the rounds it has been postponed. The
// queue slice keeps submission order, the discipline's tie-break.
type refEntry struct {
	job    *job.Job
	waited int
}

// Reference is the naive scheduler. It maintains a single slice as the
// wait queue, stably re-sorts it from scratch at every Schedule call, and
// walks it front to back with no memoization whatsoever.
type Reference struct {
	policy  schedcore.Policy
	state   *cluster.State
	mapper  *core.Mapper
	disc    schedcore.QueueDiscipline
	preempt bool

	queue   []refEntry
	running map[string]*job.Job
	// stats holds the running totals of the Core's deterministic
	// counters, counted the naive way: a decision is an attempt past the
	// capacity gate or a preemptive placement, a postponement a job a
	// round examined and left queued.
	stats schedcore.Stats
	// attempted, when set, sees every job the reference scores placements
	// for, with the state it scores them on: the live one or a trial
	// clone.
	attempted func(j *job.Job, st *cluster.State)
}

// NewReference builds a reference scheduler over a fresh state for the
// topology, mirroring the substrate construction the Core's drivers use.
func NewReference(policy schedcore.Policy, topo *topology.Topology, disc schedcore.QueueDiscipline, preempt bool) (*Reference, error) {
	mapper, err := core.NewMapper(profile.Generate(topo, topo.NumGPUs()), core.DefaultWeights())
	if err != nil {
		return nil, err
	}
	return &Reference{
		policy:  policy,
		state:   cluster.NewState(topo),
		mapper:  mapper,
		disc:    disc,
		preempt: preempt,
		running: map[string]*job.Job{},
	}, nil
}

// Submit enqueues a job.
func (r *Reference) Submit(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	r.queue = append(r.queue, refEntry{job: j})
	return nil
}

// Release frees a running job's allocation.
func (r *Reference) Release(id string) error {
	if err := r.state.Release(id); err != nil {
		return err
	}
	delete(r.running, id)
	return nil
}

// Withdraw removes a still-queued job; false when none has the ID.
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
func (r *Reference) Queued() []string {
	r.sortQueue()
	ids := make([]string, len(r.queue))
	for i, e := range r.queue {
		ids[i] = e.job.ID
	}
	return ids
}

// Stats returns the running totals of decisions, placements,
// postponements, SLO violations, preemptions and evictions; every other
// Stats field is zero.
func (r *Reference) Stats() schedcore.Stats { return r.stats }

// Running returns the running job IDs, sorted.
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
		a, b := r.disc.Key(r.queue[i].job), r.disc.Key(r.queue[k].job)
		return a.Less(&b)
	})
}

// Schedule runs one naive round of Algorithm 1: sort, walk everything,
// attempt everything eligible, requeue any victims at the end. Returns
// the round's placements in decision order.
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
			r.stats.Postponements++
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
		r.queue = append(r.queue, refEntry{job: v})
	}
	return placements
}

func (r *Reference) eligible(j *job.Job) bool { return r.preempt && j.Priority > 0 }

// attempt places j on st, the live state or a trial clone, without
// committing.
func (r *Reference) attempt(st *cluster.State, j *job.Job) (*core.Placement, string) {
	if r.attempted != nil {
		r.attempted(j, st)
	}
	return Attempt(r.policy, st, r.mapper, j)
}

// Attempt is the reference's placement policy: j placed on st without
// committing, or nil and the postponement reason. FCFS and Best-Fit go
// through schedcore.Placer; the topology-aware policies are Algorithm 1
// from cluster.State, core.Mapper and perfmodel alone: filter the hosts
// by free GPUs and bus headroom, map a single-node job onto each and keep
// the first strictly higher utility, or a multi-node job onto all of
// theirs; TOPO-AWARE-P postpones below the job's minimum utility unless
// the cluster is idle.
func Attempt(policy schedcore.Policy, st *cluster.State, mapper *core.Mapper, j *job.Job) (*core.Placement, string) {
	if policy != schedcore.TopoAware && policy != schedcore.TopoAwareP {
		return schedcore.NewPlacer(policy, st, mapper).Attempt(j)
	}
	topo := st.Topology()
	// The bus demand of the job's best allocation on an empty cluster.
	demand := perfmodel.BusDemand(j.Model, j.BatchSize, topo, topo.BestAllocation(min(j.GPUs, topo.NumGPUs())))
	var best *core.Placement
	var gathered []int
	for m := 0; m < topo.NumMachines(); m++ {
		free := st.FreeGPUsOnMachine(m)
		if len(free) == 0 || j.SingleNode && len(free) < j.GPUs || st.FreeBusBandwidth(m) < demand {
			continue
		}
		if !j.SingleNode {
			gathered = append(gathered, free...)
		} else if p, err := mapper.Place(j, st, free); err == nil && (best == nil || p.Utility > best.Utility) {
			best = p
		}
	}
	if !j.SingleNode {
		best, _ = mapper.Place(j, st, gathered)
	}
	if best == nil {
		return nil, "no-capacity"
	}
	if policy == schedcore.TopoAwareP && best.Utility < j.MinUtility && st.FreeGPUCount() < topo.NumGPUs() {
		return nil, "low-utility"
	}
	return best, ""
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
		r.stats.Decisions++
		p, reason := r.attempt(r.state, j)
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
		panic(fmt.Sprintf("reference: committing %s: %v", j.ID, err))
	}
	r.running[j.ID] = j
	r.stats.Placements++
	if p.Utility < j.MinUtility {
		r.stats.SLOViolations++
	}
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
				panic(fmt.Sprintf("reference: evaluating eviction of %s: %v", v.ID, err))
			}
		}
		p, _ := r.attempt(cs, j)
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
			panic(fmt.Sprintf("reference: evicting %s: %v", v.ID, err))
		}
		delete(r.running, v.ID)
	}
	*victims = append(*victims, best.set...)
	p, reason := r.attempt(r.state, j)
	if p == nil {
		panic(fmt.Sprintf("reference: preemptive placement of %s failed after eviction (reason %q)", j.ID, reason))
	}
	r.commit(j, p)
	r.stats.Decisions++
	r.stats.Preemptions++
	r.stats.Evictions += len(evs)
	return p, evs, true
}
