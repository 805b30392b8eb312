package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"gputopo/internal/cluster"
	"gputopo/internal/fm"
	"gputopo/internal/graph"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
)

// ErrInfeasible is the error of every mapping the candidates cannot
// take: too few of them, one not free, or no split of the job's tasks
// that fits. One value, so a caller that tries many candidate sets and
// discards the failures allocates nothing for them.
var ErrInfeasible = errors.New("core: the candidates cannot take the job")

// Mapper is the topology-aware placement engine: it runs the Dual
// Recursive Bi-partitioning algorithm (Algorithm 2, based on Ercal et
// al.'s recursive mincut bipartitioning as implemented in SCOTCH) with the
// utility-based job-graph bi-partition of Algorithm 3.
type Mapper struct {
	profiles *profile.Store
	weights  Weights
}

// NewMapper returns a Mapper scoring placements with the given profile
// store and utility weights.
func NewMapper(profiles *profile.Store, weights Weights) (*Mapper, error) {
	if err := weights.Validate(); err != nil {
		return nil, err
	}
	if profiles == nil {
		return nil, fmt.Errorf("core: nil profile store")
	}
	return &Mapper{profiles: profiles, weights: weights}, nil
}

// Place maps the job onto free GPUs drawn from candidates (GPU positions
// in st's topology, already host-filtered by the scheduler) and returns
// the scored placement. It does not mutate st. The mapping is ψ(A, P) → g
// from §4.4: the job graph A is the job's communication graph, the
// physical graph P is the candidate GPU set with the topology's distance
// matrix as the communication-cost array C.
func (m *Mapper) Place(j *job.Job, st *cluster.State, candidates []int) (*Placement, error) {
	// pl stays on the stack, so a failed mapping allocates nothing; only
	// the returned copy escapes.
	var pl Placement
	if err := m.PlaceInto(&pl, j, st, candidates); err != nil {
		return nil, err
	}
	out := pl
	return &out, nil
}

// PlaceInto is Place writing the placement into dst, reusing the backing
// array of dst.GPUs: a caller that scores many candidate sets and keeps
// one pays for no placement it throws away. dst is only written on
// success. An invalid job fails with its validation error, an infeasible
// mapping with ErrInfeasible.
func (m *Mapper) PlaceInto(dst *Placement, j *job.Job, st *cluster.State, candidates []int) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if len(candidates) < j.GPUs {
		return ErrInfeasible
	}
	for _, pos := range candidates {
		if st.Owner(pos) != "" {
			return ErrInfeasible
		}
	}

	if j.AntiCollocate {
		return m.placeAntiCollocated(dst, j, st, candidates)
	}

	// The recursion state is pooled: a scenario-2 simulation runs DRB
	// hundreds of thousands of times on tiny inputs, so the per-call
	// scratch (task list, sorted candidate copy, assignment array, the
	// affinity graph) is recycled instead of reallocated.
	d := drbPool.Get().(*drbRun)
	d.mapper, d.job, d.state = m, j, st
	tasks := d.tasksScratch[:0]
	for i := 0; i < j.GPUs; i++ {
		tasks = append(tasks, i)
	}
	d.tasksScratch = tasks
	gpus := append(d.gpusScratch[:0], candidates...)
	slices.Sort(gpus)
	d.gpusScratch = gpus
	d.assignment = d.assignment[:0]
	for i := 0; i < j.GPUs; i++ {
		d.assignment = append(d.assignment, -1)
	}
	err := d.recurse(tasks, gpus)
	release := func() {
		d.mapper, d.job, d.state = nil, nil, nil
		drbPool.Put(d)
	}
	if err != nil {
		release()
		return err
	}

	for _, gpu := range d.assignment {
		if gpu < 0 {
			release()
			return ErrInfeasible
		}
	}
	// The task -> GPU order is spent: sort the assignment in place into
	// the ascending allocation ScoreInto copies out.
	slices.Sort(d.assignment)
	m.ScoreInto(dst, j, st, d.assignment)
	release()
	return nil
}

// placeAntiCollocated implements the §4.4 anti-collocation policy: "if a
// job wants to get all its tasks spread across different nodes ... they
// will be placed on different nodes." One GPU per machine, machines chosen
// by descending single-GPU placement utility.
func (m *Mapper) placeAntiCollocated(dst *Placement, j *job.Job, st *cluster.State, candidates []int) error {
	topo := st.Topology()
	bestPerMachine := map[int]int{}
	for _, pos := range candidates {
		mi := topo.MachineOf(pos)
		cur, ok := bestPerMachine[mi]
		if !ok {
			bestPerMachine[mi] = pos
			continue
		}
		if m.Score(j, st, []int{pos}).Utility > m.Score(j, st, []int{cur}).Utility {
			bestPerMachine[mi] = pos
		}
	}
	if len(bestPerMachine) < j.GPUs {
		return ErrInfeasible
	}
	type cand struct {
		pos     int
		utility float64
	}
	var ranked []cand
	for _, pos := range bestPerMachine {
		ranked = append(ranked, cand{pos: pos, utility: m.Score(j, st, []int{pos}).Utility})
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].utility != ranked[b].utility {
			return ranked[a].utility > ranked[b].utility
		}
		return ranked[a].pos < ranked[b].pos
	})
	gpus := make([]int, j.GPUs)
	for i := range gpus {
		gpus[i] = ranked[i].pos
	}
	sort.Ints(gpus)
	m.ScoreInto(dst, j, st, gpus)
	return nil
}

// Score evaluates an arbitrary allocation for the job, producing the same
// Placement record DRB produces — used both for the final DRB solution and
// to score the greedy baselines' decisions on an equal footing.
func (m *Mapper) Score(j *job.Job, st *cluster.State, gpus []int) *Placement {
	pl := &Placement{}
	m.ScoreInto(pl, j, st, gpus)
	return pl
}

// ScoreInto is Score writing into dst, copying gpus into the backing
// array of dst.GPUs.
func (m *Mapper) ScoreInto(dst *Placement, j *job.Job, st *cluster.State, gpus []int) {
	topo := st.Topology()
	uCC, uB, uD, commCost, interference, frag := utilityTerms(j, gpus, st, m.profiles)
	p2p := len(gpus) >= 2
	for i := 0; i < len(gpus) && p2p; i++ {
		for k := i + 1; k < len(gpus); k++ {
			if !topo.P2P(gpus[i], gpus[k]) {
				p2p = false
				break
			}
		}
	}
	*dst = Placement{
		GPUs:          append(dst.GPUs[:0], gpus...),
		Utility:       Utility(m.weights, j.CommIntensity(), uCC, uB, uD),
		CommCost:      commCost,
		Interference:  interference,
		Fragmentation: frag,
		P2P:           p2p,
		BusDemand:     perfmodel.BusDemand(j.Model, j.BatchSize, topo, gpus),
	}
}

// drbRun carries the recursion state of one DRB invocation plus the
// reusable scratch buffers (pooled via drbPool).
type drbRun struct {
	mapper     *Mapper
	job        *job.Job
	state      *cluster.State
	assignment []int // task -> GPU position, -1 while unmapped

	tasksScratch []int        // Place: initial task list
	gpusScratch  []int        // Place: sorted candidate copy
	affinity     *graph.Graph // physicalGraphBiPartition: reused affinity graph
	fmWork       fm.Workspace // physicalGraphBiPartition: FM buffers and side array
	sideScratch  []int8       // jobGraphBiPartition: task -> side, -1 unassigned
	orderScratch []int        // jobGraphBiPartition: degree-ordered tasks
	// arena backs the GPU halves and task halves of every live recursion
	// level. They nest with the recursion — a level's halves die when its
	// two children return — so recurse rewinds to its entry mark.
	arena []int
}

// take returns n ints of arena scratch, valid until the arena is rewound
// below its current length. Growing moves the arena to a fresh backing
// array; slices taken earlier keep the old one.
func (d *drbRun) take(n int) []int {
	off := len(d.arena)
	if off+n > cap(d.arena) {
		d.arena = make([]int, off, 2*cap(d.arena)+n)
	}
	d.arena = d.arena[:off+n]
	return d.arena[off : off+n : off+n]
}

var drbPool = sync.Pool{New: func() interface{} { return &drbRun{affinity: graph.New()} }}

// recurse is Algorithm 2. Each call bi-partitions the physical GPU set
// with Fiduccia–Mattheyses over the affinity graph (physicalGraphBiPartition)
// and splits the tasks between the halves by utility
// (jobGraphBiPartition), recursing until a level's tasks fill its GPUs.
//
// Such a full level takes every GPU it holds, whatever the split: the
// halves' capacities sum to the task count, so each half is filled and
// no split can fail. PlaceInto reads only the set of GPUs mapped (it
// sorts the assignment before scoring it), so a full level maps
// tasks[i] to gpus[i] and runs no FM pass and no side scoring. A single
// GPU with its one task (Alg. 2 line 5) is the smallest full level; a
// 4-GPU job on an empty Minsky, and every child level one side's tasks
// fill, are full levels too.
func (d *drbRun) recurse(tasks, gpus []int) error {
	if len(tasks) == 0 {
		return nil // this partition is not a candidate (Alg. 2 line 2)
	}
	if len(tasks) > len(gpus) {
		return ErrInfeasible
	}
	if len(tasks) == len(gpus) {
		for i, task := range tasks {
			d.assignment[task] = gpus[i]
		}
		return nil
	}
	mark := len(d.arena)
	p0, p1 := d.physicalGraphBiPartition(gpus)
	a0, a1, err := d.jobGraphBiPartition(tasks, p0, p1)
	if err == nil {
		err = d.recurse(a0, p0)
	}
	if err == nil {
		err = d.recurse(a1, p1)
	}
	d.arena = d.arena[:mark]
	return err
}

// physicalGraphBiPartition splits the GPU set into two balanced halves
// using Fiduccia–Mattheyses over the affinity graph, where the affinity of
// two GPUs is the reciprocal of their topological distance. Minimizing the
// affinity cut keeps strongly connected GPUs (same socket, NVLink peers)
// on the same side, so the recursion descends the physical hierarchy the
// way SCOTCH's DRB does on the raw topology graph.
func (d *drbRun) physicalGraphBiPartition(gpus []int) (p0, p1 []int) {
	topo := d.state.Topology()
	// The affinity graph lives only for this call (FM consumes it before
	// returning), so one reused instance per drbRun suffices. Labels are
	// never read by the partitioner.
	g := d.affinity
	g.Reset(len(gpus))
	for i := 0; i < len(gpus); i++ {
		for k := i + 1; k < len(gpus); k++ {
			dist := topo.Distance(gpus[i], gpus[k])
			if dist <= 0 {
				continue
			}
			g.AddEdge(i, k, 1/dist)
		}
	}
	res := d.fmWork.Bipartition(g)
	n0 := 0
	for _, sd := range res.Side {
		if sd == 0 {
			n0++
		}
	}
	buf := d.take(len(gpus))
	p0, p1 = buf[:0:n0], buf[n0:n0]
	for i, pos := range gpus {
		if res.Side[i] == 0 {
			p0 = append(p0, pos)
		} else {
			p1 = append(p1, pos)
		}
	}
	// FM keeps sides within one vertex of balance, but guard against a
	// degenerate empty side (single-GPU input cannot reach here).
	if len(p0) == 0 {
		p0, p1 = p1[:1], p1[1:]
	} else if len(p1) == 0 {
		p1, p0 = p0[:1], p0[1:]
	}
	return p0, p1
}

// jobGraphBiPartition is Algorithm 3: it assigns each task to the physical
// sub-partition giving it higher utility, subject to capacity. Tasks are
// taken in descending weighted-degree order so the most communication-
// critical tasks choose first. What a side offers apart from the task's
// peers is the same for every task, so each side's terms are taken once,
// before the task loop.
func (d *drbRun) jobGraphBiPartition(tasks, p0, p1 []int) (a0, a1 []int, err error) {
	comm := d.job.CommGraph()
	order := append(d.orderScratch[:0], tasks...)
	d.orderScratch = order
	slices.SortStableFunc(order, func(a, b int) int {
		da, db := comm.Underlying().WeightedDegree(a), comm.Underlying().WeightedDegree(b)
		switch {
		case da > db:
			return -1
		case da < db:
			return 1
		default:
			return 0
		}
	})

	// side is call-local (parents are done with it before recursing into
	// children), so the task-indexed scratch array replaces the former
	// per-call map. -1 marks unassigned. Iterating it in task order also
	// fixes the peer summation order in sideUtility, where map ranging
	// left it to Go's randomized iteration.
	side := d.sideScratch[:0]
	for i := 0; i < d.job.GPUs; i++ {
		side = append(side, -1)
	}
	d.sideScratch = side
	t0, t1 := d.scoreSide(p0, p1), d.scoreSide(p1, p0)
	a0, a1 = d.take(len(tasks))[:0], d.take(len(tasks))[:0]
	for _, task := range order {
		u0 := d.sideUtility(task, 0, &t0, side)
		u1 := d.sideUtility(task, 1, &t1, side)
		cap0 := len(p0) - len(a0)
		cap1 := len(p1) - len(a1)
		pick := 1
		if (u0 >= u1 && cap0 > 0) || cap1 == 0 {
			pick = 0
		}
		if pick == 0 && cap0 == 0 {
			return nil, nil, ErrInfeasible
		}
		if pick == 0 {
			a0 = append(a0, task)
		} else {
			a1 = append(a1, task)
		}
		side[task] = int8(pick)
	}
	return a0, a1, nil
}

// sideTerms are the parts of a side's utility (Algorithm 3 lines 4–7)
// that do not depend on the task being placed: the mean distances
// getCommCost prices a peer at, and the getInter and getFragmentation
// terms.
type sideTerms struct {
	intra float64 // mean distance between two GPUs of the side
	cross float64 // mean distance from a GPU of the side to one of the other
	uB    float64 // 1/I for the job landing on the side
	uD    float64 // 1 − ω_d after the job takes the side's GPUs
}

// scoreSide takes the terms of side mine, whose sibling is other, from
// the global distance matrix C, the jobs running near its GPUs
// (getInter), and the fragmentation remaining after taking its GPUs
// (getFragmentation).
func (d *drbRun) scoreSide(mine, other []int) sideTerms {
	topo := d.state.Topology()
	take := min(len(mine), d.job.GPUs)
	return sideTerms{
		intra: meanIntraDistance(topo, mine),
		cross: meanCrossDistance(topo, mine, other),
		uB:    1 / predictInterference(d.job, mine, d.state, d.mapper.profiles),
		uD:    1 - d.state.FragmentationAfter(mine[:take]),
	}
}

// sideUtility scores placing task into side y, whose terms are t: it
// adds the communication cost toward already-assigned peer tasks
// (getCommCost) to the side's fixed terms.
func (d *drbRun) sideUtility(task, y int, t *sideTerms, side []int8) float64 {
	// getCommCost: expected distance to each already-assigned peer,
	// summed in ascending task order (deterministic by construction, not
	// by the luck of exactly representable partial sums).
	comm := d.job.CommGraph()
	var commCost float64
	for peer, peerSide := range side {
		if peerSide < 0 {
			continue
		}
		w := comm.Weight(task, peer)
		if w == 0 {
			continue
		}
		if int(peerSide) == y {
			commCost += w * t.intra
		} else {
			commCost += w * t.cross
		}
	}
	best := d.state.Topology().MinPairDistance()
	uCC := 1.0
	if commCost > best {
		uCC = best / commCost
	}
	return Utility(d.mapper.weights, d.job.CommIntensity(), uCC, t.uB, t.uD)
}

func meanIntraDistance(topo interface{ Distance(a, b int) float64 }, set []int) float64 {
	if len(set) < 2 {
		return 0
	}
	var sum float64
	n := 0
	for i := 0; i < len(set); i++ {
		for k := i + 1; k < len(set); k++ {
			sum += topo.Distance(set[i], set[k])
			n++
		}
	}
	return sum / float64(n)
}

func meanCrossDistance(topo interface{ Distance(a, b int) float64 }, a, b []int) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var sum float64
	for _, x := range a {
		for _, y := range b {
			sum += topo.Distance(x, y)
		}
	}
	return sum / float64(len(a)*len(b))
}
