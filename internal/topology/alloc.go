package topology

import (
	"fmt"
	"sort"
	"strings"
)

// PairwiseDistance returns the sum of pairwise shortest-path distances
// among the GPU positions in set — the communication cost t of Eq. 3.
func (t *Topology) PairwiseDistance(set []int) float64 {
	var sum float64
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			sum += t.Distance(set[i], set[j])
		}
	}
	return sum
}

// BestAllocation returns g GPU positions minimizing the pairwise distance
// sum on an empty topology — the ideal placement the utility function
// normalizes against. Results are cached per g and must not be mutated.
func (t *Topology) BestAllocation(g int) []int {
	return t.extremeAllocation(g)
}

// BestCommCost returns the pairwise-distance sum of the best allocation of
// g GPUs (0 for g < 2). The value is memoized with the allocation, so hot
// callers (utilityTerms scores one per placement candidate) pay a slice
// read, not an O(g²) distance sum.
func (t *Topology) BestCommCost(g int) float64 {
	if g < 2 {
		return 0
	}
	return t.extremeEntryFor(g).cost
}

// extremeAllocation greedily grows a GPU set from a set of seeds, keeping
// the set with the least pairwise distance. Machines hold at most 8 GPUs, so
// greedy growth matches the exhaustive optimum on the topologies built
// here (verified by tests against brute force). On large clusters the
// seed set is limited to the first two machines of each distinct machine
// shape (see seedCandidates) — by symmetry among same-shape machines
// every extreme allocation is reachable from them.
func (t *Topology) extremeAllocation(g int) []int {
	if g <= 0 {
		return nil
	}
	return t.extremeEntryFor(g).set
}

// extremeEntryFor returns the fully initialized memo entry for size
// g >= 1, clamped to NumGPUs. The greedy search runs inside the entry's
// sync.Once, so concurrent readers sharing the topology block on the entry
// being built and on nothing else.
func (t *Topology) extremeEntryFor(g int) *extremeEntry {
	g = min(g, len(t.gpus))
	e := &t.extreme[g]
	e.once.Do(func() {
		e.set = t.searchExtreme(g)
		e.cost = t.PairwiseDistance(e.set)
	})
	return e
}

// searchExtreme performs the greedy extremal search for size g.
func (t *Topology) searchExtreme(g int) []int {
	n := len(t.gpus)
	if g == n {
		return t.positions
	}
	bestScore := 0.0
	var bestSet []int
	used := make([]bool, n)
	for _, seed := range t.seedCandidates() {
		set := append(make([]int, 0, g), seed)
		for i := range used {
			used[i] = false
		}
		used[seed] = true
		for len(set) < g {
			cand, candScore := -1, 0.0
			for v := 0; v < n; v++ {
				if used[v] {
					continue
				}
				var d float64
				for _, u := range set {
					d += t.Distance(u, v)
				}
				if cand == -1 || d < candScore {
					cand, candScore = v, d
				}
			}
			set = append(set, cand)
			used[cand] = true
		}
		score := t.PairwiseDistance(set)
		if bestSet == nil || score < bestScore {
			bestScore, bestSet = score, set
		}
	}
	sort.Ints(bestSet)
	return bestSet
}

// seedCandidates returns the GPU positions extremeAllocation grows greedy
// sets from, in ascending order. Small topologies seed from every GPU. On
// large clusters the seeds are the GPUs of the first two machines of each
// *distinct machine shape*: same-shape machines are interchangeable under
// relabeling, so any extreme allocation maps onto one seeded there — but
// a heterogeneous cluster (e.g. minsky,minsky,dgx1) hides its best dense
// allocation inside the odd machine, which a first-two-machines-only
// heuristic can never reach.
func (t *Topology) seedCandidates() []int {
	if len(t.machines) <= 2 || len(t.gpus) <= 16 {
		return t.positions
	}
	var seeds []int
	seen := map[string]int{}
	for mi := range t.machines {
		sig := t.MachineShape(mi)
		if seen[sig] >= 2 {
			continue
		}
		seen[sig]++
		seeds = append(seeds, t.GPUsOfMachine(mi)...)
	}
	return seeds
}

// MachineShape returns the static fingerprint of machine mi covering
// everything a placement evaluation or the extremal search can observe
// about the empty machine — GPU count, network attachment, the full
// intra-machine distance matrix and the per-GPU root-attachment costs.
// Machines with equal shapes are interchangeable under GPU relabeling; the
// placement cache builds its per-machine keys on top of this. The shapes
// of all machines are built once per topology, on first use: a topology
// is shared by every cluster state, sweep point and shard over it.
func (t *Topology) MachineShape(mi int) string {
	t.shapeOnce.Do(func() {
		t.shapes = make([]string, len(t.machines))
		for i := range t.shapes {
			t.shapes[i] = t.machineShape(i)
		}
	})
	return t.shapes[mi]
}

// machineShape builds machine mi's shape string.
func (t *Topology) machineShape(mi int) string {
	gpus := t.GPUsOfMachine(mi)
	var sb strings.Builder
	fmt.Fprintf(&sb, "k%d;net%g", len(gpus), t.netDist[mi])
	for _, row := range t.intraDist[mi] {
		for _, d := range row {
			fmt.Fprintf(&sb, ",%g", d)
		}
	}
	sb.WriteString(";root")
	for _, pos := range gpus {
		fmt.Fprintf(&sb, ",%g", t.toRootDist[pos])
	}
	return sb.String()
}
