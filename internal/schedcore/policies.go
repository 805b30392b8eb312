package schedcore

import (
	"fmt"
	"math"
	"slices"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/heap"
	"gputopo/internal/job"
)

// placer evaluates the placement policies of §5 against one cluster
// state without committing anything. The Core owns one bound to its live
// state, which also scores the preemption path's victim sets inside
// trials on that state; the exported Placer facade is the same placer
// for callers outside the package.
type placer struct {
	policy Policy
	state  *cluster.State
	mapper *core.Mapper
	// freeScratch is reused for candidate GPU lists; its contents are
	// dead once the owning call returns.
	freeScratch []int
	// classes is the TOPO-AWARE single-node sweep's scratch: one entry
	// per class that can take the job, kept as a heap in sweep order
	// (classCand's key).
	classes []classCand
	// bounds memoises the sweep's class bounds across decisions.
	bounds core.BoundMemo
	// cur and best are the sweep's scratch placements: each class is
	// scored into cur, which trades places with best when it wins, so
	// neither placement nor its GPUs is allocated per class.
	cur, best core.Placement
	// scored counts the mapper runs of the current decision's sweep and
	// visited the machines whose bus it checked.
	scored, visited int
}

// classCand is one class in the single-node sweep, keyed (−bound, rep, 0)
// so the heap orders the sweep by bound descending, then representative
// ascending: rep is the class's lowest member with the bus headroom the
// job needs, and bound the class's core.Mapper.UtilityBound at rep.
type classCand = heap.Item[struct{}]

// attempt runs the placement policy on the job and applies the
// TOPO-AWARE-P low-utility postponement rule. It returns the chosen
// placement, or nil and the postponement reason ("no-capacity",
// "low-utility"). Nothing is committed: the caller allocates.
func (p *placer) attempt(j *job.Job) (*core.Placement, string) {
	var placement *core.Placement
	var err error
	switch p.policy {
	case FCFS:
		placement, err = p.placeFCFS(j)
	case BestFit:
		placement, err = p.placeBestFit(j)
	case TopoAware, TopoAwareP:
		placement, err = p.placeTopoAware(j)
	}
	if err != nil {
		return nil, "no-capacity"
	}
	if p.policy == TopoAwareP && placement.Utility < j.MinUtility && !p.clusterIdle() {
		// Postpone: a better placement may open when jobs finish. On an
		// idle cluster no future placement can beat this one, so place
		// best-effort to avoid deadlock.
		return nil, "low-utility"
	}
	return placement, ""
}

// clusterIdle reports whether no job is currently running. Allocate
// rejects an empty GPU list, so every running job holds a GPU and the
// free count alone answers it.
func (p *placer) clusterIdle() bool {
	return p.state.FreeGPUCount() == p.state.Topology().NumGPUs()
}

// placeFCFS is the First-Come-First-Served baseline of §5.2: the job at
// the head of the FIFO queue receives the first free GPUs in index order,
// with no topology consideration beyond the single-node constraint.
func (p *placer) placeFCFS(j *job.Job) (*core.Placement, error) {
	if j.SingleNode {
		topo := p.state.Topology()
		for m := 0; m < topo.NumMachines(); m++ {
			if p.state.FreeCountOnMachine(m) < j.GPUs {
				continue
			}
			free := p.state.AppendFreeGPUsOnMachine(p.freeScratch[:0], m)
			p.freeScratch = free
			return p.mapper.Score(j, p.state, free[:j.GPUs]), nil
		}
		return nil, fmt.Errorf("sched: no machine with %d free GPUs", j.GPUs)
	}
	free := p.state.AppendFreeGPUs(p.freeScratch[:0])
	p.freeScratch = free
	if len(free) < j.GPUs {
		return nil, fmt.Errorf("sched: %d free GPUs for request of %d", len(free), j.GPUs)
	}
	return p.mapper.Score(j, p.state, free[:j.GPUs]), nil
}

// placeBestFit is the Best-Fit bin-packing baseline of §5.2: it allocates
// "first the GPUs from highly used domains" — machines are tried from the
// fewest free GPUs that still fit, and within a machine the GPUs of the
// most-used sockets are taken first.
func (p *placer) placeBestFit(j *job.Job) (*core.Placement, error) {
	topo := p.state.Topology()
	type hostFit struct {
		machine int
		free    int
	}
	var hostBuf [64]hostFit
	hosts := hostBuf[:0]
	for m := 0; m < topo.NumMachines(); m++ {
		// O(1) per machine via the state's incremental free counters —
		// materializing every machine's free-GPU list just to count it
		// dominated the greedy baselines' decision time at 1k machines.
		free := p.state.FreeCountOnMachine(m)
		if free > 0 {
			hosts = append(hosts, hostFit{machine: m, free: free})
		}
	}
	// Tightest fit first; ties by machine index for determinism.
	slices.SortFunc(hosts, func(a, b hostFit) int {
		if a.free != b.free {
			return a.free - b.free
		}
		return a.machine - b.machine
	})

	if j.SingleNode {
		for _, h := range hosts {
			if h.free >= j.GPUs {
				gpus := p.bestFitGPUs(h.machine, j.GPUs)
				return p.mapper.Score(j, p.state, gpus), nil
			}
		}
		return nil, fmt.Errorf("sched: no machine fits %d GPUs", j.GPUs)
	}

	gpus := p.freeScratch[:0]
	for _, h := range hosts {
		need := j.GPUs - len(gpus)
		if need == 0 {
			break
		}
		take := need
		if take > h.free {
			take = h.free
		}
		gpus = append(gpus, p.bestFitGPUs(h.machine, take)...)
	}
	p.freeScratch = gpus
	if len(gpus) < j.GPUs {
		return nil, fmt.Errorf("sched: %d free GPUs for request of %d", len(gpus), j.GPUs)
	}
	return p.mapper.Score(j, p.state, gpus), nil
}

// bestFitGPUs picks n free GPUs on the machine, preferring the sockets
// with the most GPUs already in use (bin packing within the machine).
func (p *placer) bestFitGPUs(machine, n int) []int {
	topo := p.state.Topology()
	type socketFit struct {
		socket int
		used   int
	}
	var socketBuf [8]socketFit
	sockets := socketBuf[:0]
	for _, sk := range topo.Sockets(machine) {
		used, free := 0, 0
		for _, pos := range topo.GPUsOfSocket(machine, sk) {
			if p.state.Owner(pos) == "" {
				free++
			} else {
				used++
			}
		}
		if free > 0 {
			sockets = append(sockets, socketFit{socket: sk, used: used})
		}
	}
	slices.SortFunc(sockets, func(a, b socketFit) int {
		if a.used != b.used {
			return b.used - a.used
		}
		return a.socket - b.socket
	})
	out := make([]int, 0, n)
	for _, sf := range sockets {
		for _, pos := range topo.GPUsOfSocket(machine, sf.socket) {
			if p.state.Owner(pos) != "" {
				continue
			}
			if len(out) == n {
				return out
			}
			out = append(out, pos)
		}
	}
	return out
}

// placeTopoAware implements the topology-aware policies: filter hosts by
// constraints (Algorithm 1), then run the DRB mapper over each candidate
// host (or over the whole candidate set for multi-node jobs) and keep the
// highest-utility solution, the lowest machine among equals.
//
// The single-node sweep decides over cluster.State.Classes, not machines:
// within a decision the job and the cluster-wide fragmentation sum are
// fixed, so machines of one class present the mapper with the same
// subproblem up to an order-preserving relabeling of the free GPUs and
// score identically. Reading the index drains the machines changed since
// the last decision, and nothing else is recomputed. A class with fewer
// free GPUs than the job is skipped whole. Committed bus bandwidth is not
// in the fingerprint, so a class's members are walked in ascending order
// to its representative, the lowest one the bus filter admits — the
// machine a walk of the filtered hosts in index order would meet first.
//
// Each class is bounded once by core.Mapper.UtilityBound, through the
// placer's memo of its class terms (core.Mapper.ClassBound): a class
// bounded for the job's shape before, under the same fingerprint, costs
// only the final formula. Classes are mapped by descending bound, ties by
// representative. The sweep stops at the first bound below the best
// utility so far: no later class can reach it. A class whose bound equals
// the best is mapped only if its representative is below the best's
// machine, and a class wins on strictly higher utility or on equal
// utility at a lower machine. Anti-collocated jobs are bounded at +Inf,
// so every class is mapped, in representative order.
//
// A multi-node job is mapped once, onto the free GPUs of every machine
// with the bus headroom it needs.
func (p *placer) placeTopoAware(j *job.Job) (*core.Placement, error) {
	if !j.SingleNode {
		demand := estimateDemand(j, p.state)
		candidates := p.freeScratch[:0]
		for m := 0; m < p.state.Topology().NumMachines(); m++ {
			if p.state.FreeBusBandwidth(m) >= demand {
				candidates = p.state.AppendFreeGPUsOnMachine(candidates, m)
			}
		}
		p.freeScratch = candidates
		return p.mapper.Place(j, p.state, candidates)
	}

	p.scored, p.visited = 0, 0
	found := false
	bestRep := 0
	// Pop the heap in sweep order: the stop usually comes after a few
	// classes, so the rest are never ordered.
	for h := p.sweepClasses(j); len(h) > 0; {
		var c classCand
		h, c = heap.Pop(h, nil)
		bound, rep := -c.A, int(c.B)
		if found && bound < p.best.Utility {
			break
		}
		if found && bound == p.best.Utility && rep > bestRep {
			continue
		}
		free := p.state.AppendFreeGPUsOnMachine(p.freeScratch[:0], rep)
		p.freeScratch = free
		p.scored++
		if err := p.mapper.PlaceInto(&p.cur, j, p.state, free); err != nil {
			continue
		}
		if !found || p.cur.Utility > p.best.Utility || p.cur.Utility == p.best.Utility && rep < bestRep {
			p.cur, p.best = p.best, p.cur
			found, bestRep = true, rep
		}
	}
	if !found {
		return nil, fmt.Errorf("sched: no host takes %s", j.ID)
	}
	// Decisions keep their placement: hand out a copy, not the scratch.
	best := p.best
	best.GPUs = slices.Clone(best.GPUs)
	return &best, nil
}

// sweepClasses returns the classes that can take the single-node job j —
// enough free GPUs, and a member with the bus headroom — each with its
// representative and bound, as a heap in sweep order.
func (p *placer) sweepClasses(j *job.Job) []classCand {
	demand := estimateDemand(j, p.state)
	cands := p.classes[:0]
	for id, ms := range p.state.Classes() {
		if len(ms) == 0 || p.state.FreeCountOnMachine(int(ms[0])) < j.GPUs {
			continue
		}
		rep := -1
		for _, m := range ms {
			p.visited++
			if p.state.FreeBusBandwidth(int(m)) >= demand {
				rep = int(m)
				break
			}
		}
		if rep < 0 {
			continue
		}
		bound := math.Inf(1)
		if !j.AntiCollocate {
			bound = p.mapper.ClassBound(&p.bounds, j, p.state, id, rep)
		}
		cands = append(cands, classCand{Key: heap.Key{A: -bound, B: float64(rep)}})
	}
	heap.Init(cands, nil)
	p.classes = cands
	return cands
}

// Placer exposes the Core's placement evaluation to packages outside the
// core: the differential reference scores its FCFS and Best-Fit
// placements through it, and the frozen cmd/topoperf's probes time it
// (docs/performance.md, "The frozen benchmark contract").
type Placer struct{ p placer }

// NewPlacer returns a placement evaluator for the policy over the state:
// the placer New builds.
func NewPlacer(policy Policy, state *cluster.State, mapper *core.Mapper) *Placer {
	return &Placer{p: placer{policy: policy, state: state, mapper: mapper}}
}

// Attempt evaluates the policy on the job without committing. It returns
// the placement, or nil and the postponement reason ("no-capacity",
// "low-utility").
func (pl *Placer) Attempt(j *job.Job) (*core.Placement, string) { return pl.p.attempt(j) }
