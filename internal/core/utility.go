// Package core implements the paper's primary contribution: the
// topology-aware graph-mapping placement algorithm of §4. It contains the
// objective function and constraints (§4.3, Eq. 1), the utility function
// (Eq. 2) with its three terms — communication cost (Eq. 3), interference
// (Eq. 4) and fragmentation (Eq. 5) — and the Dual Recursive
// Bi-partitioning mapper (§4.4, Algorithms 2 and 3) that transforms a
// job's communication graph A and the physical topology graph P into a
// GPU allocation ψ(A, P) → g.
package core

import (
	"fmt"
	"math"

	"gputopo/internal/cluster"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
)

// Weights are the α coefficients of the objective and utility functions
// (Eq. 1 and 2): αcc weighs communication cost, αb interference, and αd
// fragmentation. They must sum to 1.
type Weights struct {
	CommCost      float64 // αcc
	Interference  float64 // αb
	Fragmentation float64 // αd
}

// DefaultWeights returns the equal weighting (0.33 each) used by the
// paper's experiments (§5.2.1).
func DefaultWeights() Weights {
	return Weights{CommCost: 1.0 / 3, Interference: 1.0 / 3, Fragmentation: 1.0 / 3}
}

// Validate reports whether the weights are non-negative and sum to 1.
func (w Weights) Validate() error {
	if w.CommCost < 0 || w.Interference < 0 || w.Fragmentation < 0 {
		return fmt.Errorf("core: negative α weight in %+v", w)
	}
	if sum := w.CommCost + w.Interference + w.Fragmentation; math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("core: α weights sum to %.4f, want 1", sum)
	}
	return nil
}

// Placement is the result of mapping a job onto GPUs, with the scored
// quality terms.
type Placement struct {
	// GPUs are the allocated GPU positions, sorted ascending.
	GPUs []int
	// Utility is the overall placement utility in [0, 1] (Eq. 2,
	// normalized); TOPO-AWARE-P postpones placements whose utility is
	// below the job's minimum.
	Utility float64
	// CommCost is the pairwise shortest-path distance sum (Eq. 3).
	CommCost float64
	// Interference is the predicted co-location slowdown factor I >= 1
	// (Eq. 4 with the collocated/solo convention).
	Interference float64
	// Fragmentation is ω_d after the placement (Eq. 5).
	Fragmentation float64
	// P2P reports whether every communicating GPU pair has a
	// peer-to-peer path (the property Figure 8 highlights).
	P2P bool
	// BusDemand is the shared-bus bandwidth (GB/s) the job will commit on
	// its machines: the t_bw of the capacity constraint t_bw <= p_bw (§4.3).
	BusDemand float64
}

// utilityTerms computes the three normalized [0,1] utility terms of a
// candidate allocation for the job.
//
// The paper's Eq. 2 uses raw reciprocals (1/t diverges for single-GPU
// jobs and the interference ratio direction is ambiguous between Eq. 1
// and Eq. 4); we use the equivalent normalized forms so utilities are
// comparable with the SLO thresholds of Table 1:
//
//	u_cc = t_best / max(t, t_best)  (1 when packed as well as possible)
//	u_b  = 1 / I                    (1 when no interference predicted)
//	u_d  = 1 - ω                    (1 when no fragmentation remains)
func utilityTerms(j *job.Job, gpus []int, st *cluster.State, profiles *profile.Store) (uCC, uB, uD, commCost, interference, frag float64) {
	topo := st.Topology()
	commCost = topo.PairwiseDistance(gpus)
	best := topo.BestCommCost(len(gpus))
	if len(gpus) < 2 || commCost <= best || best == 0 {
		uCC = 1
	} else {
		uCC = best / commCost
	}

	interference = predictInterference(j, gpus, st, profiles)
	uB = 1 / interference

	frag = st.FragmentationAfter(gpus)
	uD = 1 - frag
	return uCC, uB, uD, commCost, interference, frag
}

// predictInterference gathers the co-runners sharing sockets or machines
// with the candidate GPUs and returns the profile-predicted slowdown
// factor I >= 1 (Eq. 4). Only jobs on the candidates' machines are
// examined, so the cost is independent of cluster size. The co-runners
// come from the cluster state's resident tables — machines ascending, job
// IDs sorted within a machine — which is the order Eq. 4's terms are
// summed in; a co-runner shares a socket with the candidates when the
// socket masks of the two intersect on some machine. Each co-runner adds
// sensitivity(victim) · pressure(co-runner) · locality factor, with the
// factor convention fixed so that "less interference" means a value
// closer to 1: as printed, Eq. 4 computes the reciprocal solo/collocated
// ratio; we use collocated/solo so that minimizing interference and
// maximizing utility agree. This sits on the innermost DRB scoring path
// and allocates nothing.
func predictInterference(j *job.Job, gpus []int, st *cluster.State, profiles *profile.Store) float64 {
	topo := st.Topology()
	var siteBuf [8]site
	sites := siteBuf[:0]
	for _, pos := range gpus {
		m := topo.MachineOf(pos)
		i := 0
		for i < len(sites) && sites[i].machine < m {
			i++
		}
		if i == len(sites) || sites[i].machine != m {
			// slices.Insert, spelled out: the generic call cost an eighth
			// of this function in the scenario-2 profile.
			sites = append(sites, site{})
			copy(sites[i+1:], sites[i:])
			sites[i] = site{machine: m}
		}
		sites[i].sockets |= topo.SocketBit(pos)
	}

	sens := profiles.Sensitivity(j.Traits())
	var sum float64
	for i, at := range sites {
		for _, r := range st.Residents(at.machine) {
			locality := perfmodel.SameMachine
			if r.Sockets&at.sockets != 0 {
				locality = perfmodel.SameSocket
			}
			if len(sites) > 1 {
				counted, shares := elsewhere(st, sites, i, r.Alloc)
				if counted {
					continue
				}
				if shares {
					locality = perfmodel.SameSocket
				}
			}
			sum += sens * profiles.Pressure(r.Alloc.Traits) * perfmodel.LocalityFactor(locality)
		}
	}
	return 1 + perfmodel.CapSlowdown(sum)
}

// site is one machine under a candidate GPU set and the sockets the
// candidates occupy there (topology.SocketBit).
type site struct {
	machine int
	sockets uint64
}

// elsewhere looks a resident of sites[i]'s machine up on the candidates'
// other machines. A job spanning several of them is one co-runner: it is
// counted at the first (counted reports an earlier site holds it), and it
// shares a socket with the candidates if it does on any (shares reports a
// later site where it does).
func elsewhere(st *cluster.State, sites []site, i int, alloc *cluster.Allocation) (counted, shares bool) {
	for k, other := range sites {
		if k == i {
			continue
		}
		for _, o := range st.Residents(other.machine) {
			if o.Alloc != alloc {
				continue
			}
			if k < i {
				return true, false
			}
			shares = shares || o.Sockets&other.sockets != 0
		}
	}
	return false, shares
}

// UtilityBound returns an upper bound on the utility of any placement of
// the single-node job j on the machine whose free GPUs are free: PlaceInto
// over free never scores above it, compared bit for bit. The TOPO-AWARE
// sweep bounds each machine class once and maps no class whose bound
// cannot beat the best placement it already holds. It allocates nothing.
//
// Utility is monotone in each term (the weights are non-negative and IEEE
// rounding is monotone), so each term is bounded on its own:
//
//	u_cc ≤ 1
//	u_b  ≤ 1 / (1 + CapSlowdown(Σ sens·pressure·LocalityFactor(SameMachine)))
//	u_d  = 1 - FragmentationAfter(free[:j.GPUs]) when every free GPU sits
//	       in a socket of one size, else ≤ 1
//
// Eq. 4 sums the machine's residents in the order predictInterference
// does, each with factor SameMachine or the larger SameSocket, so the sum
// of the lesser products is no larger. FragmentationAfter sums 1/SocketSize over
// the chosen GPUs; when those terms are all equal, any j.GPUs of them give
// the same sum. A negative profile product would break the ordering, so
// one makes the bound +Inf.
//
// UtilityBound is BoundFrom(BoundTerms(…)): the class terms, then the
// final formula. The sweep reaches it through ClassBound's memo.
//
//lint:ignore deadcode oracle: core and difftest tests hold PlaceInto and ClassBound to this bound
func (m *Mapper) UtilityBound(j *job.Job, st *cluster.State, machine int, free []int) float64 {
	return m.BoundFrom(m.BoundTerms(j, st, machine, free), j, st)
}

// BoundTerms are the parts of UtilityBound a machine's class fixes for a
// job shape: they read only j.Traits(), the machine's residents and the
// socket sizes of its free GPUs, all of which the class fingerprint
// (cluster.State.MachineFingerprint) carries. What else the bound reads —
// the cluster's Eq. 5 sum and the job's communication intensity — BoundFrom
// reads at the time of the decision.
type BoundTerms struct {
	// UB is u_b⁺, or +Inf when a profile product is negative: the bound is
	// then +Inf.
	UB float64
	// Delta is cluster.State.SocketDelta of the first j.GPUs free GPUs;
	// it prices u_d exactly when Exact is set.
	Delta float64
	// Exact reports that the machine has j.GPUs free GPUs, all in sockets
	// of one size.
	Exact bool
}

// BoundTerms returns the class terms of UtilityBound for j on machine,
// whose free GPUs are free. It allocates nothing.
func (m *Mapper) BoundTerms(j *job.Job, st *cluster.State, machine int, free []int) BoundTerms {
	sens := m.profiles.Sensitivity(j.Traits())
	var sum float64
	for _, r := range st.Residents(machine) {
		x := sens * m.profiles.Pressure(r.Alloc.Traits)
		if !(x >= 0) {
			return BoundTerms{UB: math.Inf(1)}
		}
		sum += x * perfmodel.LocalityFactor(perfmodel.SameMachine)
	}
	t := BoundTerms{UB: 1 / (1 + perfmodel.CapSlowdown(sum))}
	if len(free) >= j.GPUs && oneSocketSize(st, free) {
		t.Delta, t.Exact = st.SocketDelta(free[:j.GPUs]), true
	}
	return t
}

// BoundFrom finishes UtilityBound from a class's terms, the state's
// current Eq. 5 sum and j's communication intensity.
func (m *Mapper) BoundFrom(t BoundTerms, j *job.Job, st *cluster.State) float64 {
	if math.IsInf(t.UB, 1) {
		return t.UB
	}
	uD := 1.0
	if t.Exact {
		uD = 1 - st.FragmentationAfterDelta(t.Delta)
	}
	return Utility(m.weights, j.CommIntensity(), 1, t.UB, uD)
}

// BoundMemo memoises BoundTerms per job shape and machine class for
// ClassBound, so that a sweep bounds a class once per shape rather than
// once per decision. A memo serves one mapper — the terms read its
// profiles — and its zero value is empty and ready.
//
// A row per shape is indexed by class id. The shape is the job's full
// perfmodel.Traits, which is all BoundTerms reads of the job; the
// communication intensity stays out, since BoundFrom reads it. An entry
// is keyed on the fingerprint its class id named when the terms were
// taken (cluster.State.ClassName) and is used only while the id still
// names it: the fingerprint fixes the terms, so the memo is exact across
// reassigned ids, trials, Clone and states alike.
type BoundMemo struct {
	shapes map[perfmodel.Traits]int // shape -> row
	rows   [][]boundEntry
	// last and lastRow are the shape of the previous ClassBound call and
	// its row: a sweep asks for one shape many times running.
	last    perfmodel.Traits
	lastRow int
	// free is the miss path's free-GPU scratch.
	free []int
}

// boundEntry is one class's memoised terms for one shape.
type boundEntry struct {
	name  string // the class's fingerprint the terms were taken for; "" for none
	terms BoundTerms
}

// row returns the index of shape t's row, adding an empty one for a shape
// not seen before.
func (b *BoundMemo) row(t perfmodel.Traits) int {
	if len(b.rows) > 0 && t == b.last {
		return b.lastRow
	}
	r, ok := b.shapes[t]
	if !ok {
		if b.shapes == nil {
			b.shapes = make(map[perfmodel.Traits]int)
		}
		r = len(b.rows)
		b.shapes[t] = r
		b.rows = append(b.rows, nil)
	}
	b.last, b.lastRow = t, r
	return r
}

// ClassBound returns UtilityBound(j, st, rep, free GPUs of rep) bit for
// bit, where class is rep's class id as of st's last class read
// (cluster.State.Classes). It takes the class terms from memo when the
// id still names the fingerprint they were taken for, and otherwise
// computes and stores them. A warm call allocates nothing.
func (m *Mapper) ClassBound(memo *BoundMemo, j *job.Job, st *cluster.State, class, rep int) float64 {
	r := memo.row(j.Traits())
	row := memo.rows[r]
	if class >= len(row) {
		// Class ids stay below NumMachines()+1: a row is allocated once.
		n := max(class+1, st.Topology().NumMachines()+1)
		row = append(row, make([]boundEntry, n-len(row))...)
		memo.rows[r] = row
	}
	e := &row[class]
	if name := st.ClassName(class); e.name != name {
		memo.free = st.AppendFreeGPUsOnMachine(memo.free[:0], rep)
		*e = boundEntry{name: name, terms: m.BoundTerms(j, st, rep, memo.free)}
	}
	return m.BoundFrom(e.terms, j, st)
}

// oneSocketSize reports whether every GPU in gpus sits in a socket of the
// same size.
func oneSocketSize(st *cluster.State, gpus []int) bool {
	topo := st.Topology()
	for _, pos := range gpus {
		if topo.SocketSize(pos) != topo.SocketSize(gpus[0]) {
			return false
		}
	}
	return true
}

// Utility combines the three terms into the overall placement utility.
// The communication term is weighted by the job's communication intensity
// (the §5.1 job-graph edge weight, 4 for tiny batches down to 1 for big,
// 0 for single-GPU jobs): a job that barely communicates should not have
// its placement vetoed by communication cost, while a tiny-batch job's
// utility is dominated by it. This realizes "applications express their
// performance objectives as SLOs that are translated into abstract
// utility functions" (§1).
func Utility(w Weights, commIntensity, uCC, uB, uD float64) float64 {
	num := w.CommCost*commIntensity*uCC + w.Interference*uB + w.Fragmentation*uD
	den := w.CommCost*commIntensity + w.Interference + w.Fragmentation
	if den == 0 {
		return 0
	}
	return num / den
}
