package schedcore

import (
	"errors"
	"fmt"
	"slices"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/schedcore/placecache"
)

// placer evaluates the placement policies of §5 against one cluster
// state without committing anything. The Core owns one bound to its live
// state; the preemption path builds throwaway placers over state clones
// to evaluate victim sets, and the exported Placer facade hands the same
// arithmetic to the differential test harness — so every caller scores
// placements with bit-identical code.
type placer struct {
	policy Policy
	state  *cluster.State
	mapper *core.Mapper
	// freeScratch and hostScratch are reused for candidate GPU and host
	// lists; their contents are dead once the owning call returns.
	freeScratch []int
	hostScratch []int
	// cache memoizes mapper decisions across equivalent subproblems.
	// Only the TOPO-AWARE paths consult it — FCFS and Best-Fit pick GPUs
	// greedily and only Score the pick, which is already cheap. A nil
	// cache (NewPlacer) selects the naive per-machine sweep the
	// differential reference compares against.
	cache *placecache.Cache
	// classSeen, slotScratch and bestSlots serve the class sweep: the
	// machine fingerprints one decision has already evaluated, the slots
	// of the evaluation in hand and those of the best class so far.
	classSeen   map[string]struct{}
	slotScratch []int
	bestSlots   []int
}

// errInfeasible reports a deterministic mapper failure, fresh or replayed
// from the cache (Place is a pure function of the key, so its errors are
// part of the decision). Callers only branch on err != nil.
var errInfeasible = errors.New("sched: placement infeasible")

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

// clusterIdle reports whether no job is currently running.
func (p *placer) clusterIdle() bool { return len(p.state.Jobs()) == 0 }

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
// highest-utility solution.
func (p *placer) placeTopoAware(j *job.Job) (*core.Placement, error) {
	hosts := p.filterHosts(j)
	if len(hosts) == 0 {
		return nil, fmt.Errorf("sched: no host satisfies constraints of %s", j.ID)
	}

	if !j.SingleNode {
		candidates := p.freeScratch[:0]
		for _, m := range hosts {
			candidates = p.state.AppendFreeGPUsOnMachine(candidates, m)
		}
		p.freeScratch = candidates
		if len(candidates) < j.GPUs {
			return nil, fmt.Errorf("sched: %d candidate GPUs for request of %d", len(candidates), j.GPUs)
		}
		if p.cache != nil {
			if sig, cacheable := placecache.JobSig(j); cacheable {
				slots, score, ok := p.evaluate(j, placecache.MultiHostKey(sig, p.state, hosts), true, candidates)
				if !ok {
					return nil, errInfeasible
				}
				return materialize(candidates, slots, score), nil
			}
		}
		return p.mapper.Place(j, p.state, candidates)
	}

	if p.cache != nil {
		return p.sweepClasses(j, hosts)
	}
	var best *core.Placement
	for _, m := range hosts {
		free := p.state.AppendFreeGPUsOnMachine(p.freeScratch[:0], m)
		p.freeScratch = free
		pl, err := p.mapper.Place(j, p.state, free)
		if err != nil {
			continue
		}
		if best == nil || pl.Utility > best.Utility {
			best = pl
		}
	}
	if best == nil {
		return nil, fmt.Errorf("sched: DRB found no feasible mapping for %s", j.ID)
	}
	return best, nil
}

// sweepClasses is the single-node candidate sweep of a cached placer. Two
// hosts with equal cluster.State.MachineFingerprint present the mapper
// with the same subproblem up to an order-preserving relabeling of their
// free GPUs (the job and the cluster-wide fragmentation sum are fixed
// within one decision), so they score identically and only the
// lowest-index machine of each fingerprint class is evaluated. Classes
// are met in ascending order of that representative and a later class
// wins only on strictly higher utility, which is the per-machine sweep's
// own rule: the chosen machine, GPUs and terms are the ones it would
// return. Classes compare on the scored terms alone; one Placement is
// built, for the winner.
func (p *placer) sweepClasses(j *job.Job, hosts []int) (*core.Placement, error) {
	// A custom communication graph has no signature, so its evaluations
	// bypass the LRU — but the job is as fixed within the sweep as any
	// other, so the fold holds for it too.
	sig, cacheable := placecache.JobSig(j)
	if p.classSeen == nil {
		p.classSeen = make(map[string]struct{})
	}
	clear(p.classSeen)
	winner := -1
	var best placecache.Score
	for _, m := range hosts {
		fp := p.state.MachineFingerprint(m)
		if _, seen := p.classSeen[fp]; seen {
			continue
		}
		p.classSeen[fp] = struct{}{}
		free := p.state.AppendFreeGPUsOnMachine(p.freeScratch[:0], m)
		p.freeScratch = free
		var key placecache.Key
		if cacheable {
			key = placecache.SingleHostKey(sig, p.state, m)
		}
		slots, score, ok := p.evaluate(j, key, cacheable, free)
		if !ok {
			continue
		}
		if winner < 0 || score.Utility > best.Utility {
			winner, best = m, score
			p.bestSlots = append(p.bestSlots[:0], slots...)
		}
	}
	if winner < 0 {
		return nil, fmt.Errorf("sched: DRB found no feasible mapping for %s", j.ID)
	}
	free := p.state.AppendFreeGPUsOnMachine(p.freeScratch[:0], winner)
	p.freeScratch = free
	return materialize(free, p.bestSlots, best), nil
}

// evaluate answers one mapper subproblem over candidates (ascending; free
// lists are) as slot indices into candidates plus the scored terms: the
// cache's entry for key when cacheable and present, else the mapper's
// decision, stored for the next asker — deterministic failures included
// (negative entries): Place is a pure function of the key's inputs, so
// "no feasible mapping here" is as cacheable as a mapping. Every term is
// a pure function of the key (placecache.Score documents why), so a hit
// is bit-for-bit the miss it replays. ok is false when the subproblem is
// infeasible. The slots are only valid until the next evaluate.
func (p *placer) evaluate(j *job.Job, key placecache.Key, cacheable bool, candidates []int) (slots []int, score placecache.Score, ok bool) {
	if cacheable {
		if slots, score, negative, hit := p.cache.Lookup(key); hit {
			if negative {
				return nil, score, false
			}
			// Defensive: a corrupt entry falls through to a miss.
			if len(slots) == j.GPUs && slices.Max(slots) < len(candidates) && slices.Min(slots) >= 0 {
				return slots, score, true
			}
		}
	}
	pl, err := p.mapper.Place(j, p.state, candidates)
	if err != nil {
		if cacheable {
			p.cache.Store(key, nil, placecache.Score{}, true)
		}
		return nil, placecache.Score{}, false
	}
	// Place draws GPUs from candidates only, so the conversion cannot fail
	// short of a mapper bug; such a decision is dropped, never stored.
	if p.slotScratch, ok = placecache.SlotsOf(p.slotScratch[:0], candidates, pl.GPUs); !ok {
		return nil, placecache.Score{}, false
	}
	score = placecache.Score{
		Utility:       pl.Utility,
		CommCost:      pl.CommCost,
		Interference:  pl.Interference,
		Fragmentation: pl.Fragmentation,
		P2P:           pl.P2P,
		BusDemand:     pl.BusDemand,
	}
	if cacheable {
		p.cache.Store(key, p.slotScratch, score, false)
	}
	return p.slotScratch, score, true
}

// materialize relabels stored slot indices onto the concrete candidates
// and rebuilds the Placement from the stored quality terms.
func materialize(candidates, slots []int, score placecache.Score) *core.Placement {
	gpus := make([]int, len(slots))
	for i, sl := range slots {
		gpus[i] = candidates[sl]
	}
	return &core.Placement{
		GPUs:          gpus,
		Utility:       score.Utility,
		CommCost:      score.CommCost,
		Interference:  score.Interference,
		Fragmentation: score.Fragmentation,
		P2P:           score.P2P,
		BusDemand:     score.BusDemand,
	}
}

// filterHosts implements filterHostsByConstraints (Algorithm 1): machines
// with enough free GPUs and enough uncommitted shared-bus bandwidth for
// the job. Returned machine indices are ascending.
func (p *placer) filterHosts(j *job.Job) []int {
	topo := p.state.Topology()
	demand := estimateDemand(j, p.state)
	hosts := p.hostScratch[:0]
	for m := 0; m < topo.NumMachines(); m++ {
		if p.state.FreeCountOnMachine(m) < minGPUsPerHost(j) {
			continue
		}
		if p.state.FreeBusBandwidth(m) < demand {
			continue
		}
		hosts = append(hosts, m)
	}
	p.hostScratch = hosts
	return hosts
}

// Placer exposes the placement evaluation to packages outside the core —
// the differential harness's naive reference scheduler reimplements the
// queue mechanics from scratch but must score placements with exactly
// the same policy arithmetic, or every comparison would chase mapper
// deltas instead of queue bugs.
type Placer struct{ p placer }

// NewPlacer returns a placement evaluator for the policy over the state.
func NewPlacer(policy Policy, state *cluster.State, mapper *core.Mapper) *Placer {
	return &Placer{p: placer{policy: policy, state: state, mapper: mapper}}
}

// Attempt evaluates the policy on the job without committing. It returns
// the placement, or nil and the postponement reason ("no-capacity",
// "low-utility").
func (pl *Placer) Attempt(j *job.Job) (*core.Placement, string) { return pl.p.attempt(j) }
