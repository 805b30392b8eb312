// Package fm implements the Fiduccia–Mattheyses linear-time heuristic for
// improving network partitions (Fiduccia & Mattheyses, DAC'82), which the
// paper uses to bi-partition the physical topology graph inside the Dual
// Recursive Bi-partitioning mapper (§4.4, Algorithm 2, following SCOTCH's
// implementation).
//
// The variant here works on weighted undirected graphs: the objective is to
// split the vertex set into two sides minimizing the total weight of cut
// edges, subject to a balance constraint on the number of vertices per
// side. Gains are maintained in the classic bucket structure indexed by
// integer gain (weights are scaled to integers), giving amortized
// constant-time selection of the best move.
package fm

import (
	"math"

	"gputopo/internal/graph"
)

const (
	// maxImbalance is the largest allowed difference between side sizes,
	// in vertices: the DRB mapper splits physical domains evenly.
	maxImbalance = 1
	// maxPasses bounds the number of improvement passes. Each pass moves
	// every vertex at most once; FM almost always converges in 2-4.
	maxPasses = 8
)

// Result describes a computed bipartition.
type Result struct {
	// Side maps each vertex to 0 or 1.
	Side []int
	// CutWeight is the total weight of edges crossing the partition.
	CutWeight float64
}

// Workspace carries the per-Bipartition views of the graph plus the pass
// scratch buffers and the result's side array, all reused from one call
// to the next. The zero value is ready to use; a Workspace serves one
// goroutine. The DRB mapper partitions thousands of tiny graphs per
// simulation and the scratch buffers dwarf the actual work, so it owns
// one per recursion state.
type Workspace struct {
	edges   []graph.Edge
	inc     [][]inc
	incFlat []inc
	side    []int
	// fmPass scratch.
	moved    []bool
	gains    []float64
	sequence []int
}

// Bipartition splits g into two halves whose sizes differ by at most one
// vertex, with small cut weight. It starts from an interleaved
// assignment, then runs FM passes until no pass improves the cut. An
// empty graph yields an empty Result. The returned Result.Side aliases
// w's buffers and is valid until w's next call.
func (w *Workspace) Bipartition(g *graph.Graph) Result {
	n := g.NumVertices()
	// Initial assignment: alternate the vertices so both sides start
	// balanced.
	side := w.side[:0]
	for v := 0; v < n; v++ {
		side = append(side, v%2)
	}
	w.side = side
	res := Result{Side: side}
	if n == 0 {
		return res
	}

	// Materialize the edge list and per-vertex incidence once: the passes
	// below recompute cuts and gains many times, and pulling fresh
	// Edges/Neighbors/EdgeWeight copies out of the graph per call was the
	// dominant allocation source of the DRB mapper. Summation orders are
	// preserved exactly (edge list stays (U,V)-sorted, incidence stays in
	// adjacency insertion order), so results are bit-identical.
	w.load(g)

	res.CutWeight = w.cutWeight(res.Side)
	for pass := 0; pass < maxPasses; pass++ {
		improved, newCut := w.fmPass(res.Side)
		if !improved {
			break
		}
		res.CutWeight = newCut
	}
	return res
}

// load (re)fills the workspace from the graph: the (U,V)-sorted edge list
// and per-vertex (neighbor, weight) incidence lists in insertion order,
// backed by one flat buffer.
func (w *Workspace) load(g *graph.Graph) {
	n := g.NumVertices()
	w.edges = g.AppendEdges(w.edges[:0])
	w.incFlat = w.incFlat[:0]
	if cap(w.inc) < n {
		w.inc = make([][]inc, n)
	}
	w.inc = w.inc[:n]
	// Two passes so incFlat reaches its final size before slicing: append
	// may relocate the backing array, which would orphan earlier lists.
	for v := 0; v < n; v++ {
		g.ForEachIncident(v, func(to int, wt float64) {
			w.incFlat = append(w.incFlat, inc{to: to, w: wt})
		})
	}
	off := 0
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		w.inc[v] = w.incFlat[off : off+d : off+d]
		off += d
	}
}

// fmPass performs one FM pass: repeatedly move the highest-gain movable
// vertex (respecting balance), lock it, and record the running best
// configuration; finally roll back to that best prefix. Returns whether the
// cut strictly improved and the resulting cut weight.
func (w *Workspace) fmPass(side []int) (bool, float64) {
	n := len(w.inc)
	moved := w.moved[:0]
	gains := w.gains[:0]
	for v := 0; v < n; v++ {
		moved = append(moved, false)
		gains = append(gains, w.gain(side, v))
	}
	w.moved, w.gains = moved, gains
	count := [2]int{}
	for v := 0; v < n; v++ {
		count[side[v]]++
	}

	startCut := w.cutWeight(side)
	curCut := startCut
	bestCut := startCut
	bestPrefix := 0
	sequence := w.sequence[:0]

	for step := 0; step < n; step++ {
		// Select the best movable vertex. Linear scan keeps the
		// implementation simple; graphs here have at most a few dozen
		// vertices per machine, so the classic gain buckets would add
		// complexity without measurable benefit. For cluster-level
		// graphs the DRB mapper already splits per machine first.
		//
		// Classic FM allows the balance constraint to be violated
		// transiently during the pass (otherwise no move can leave a
		// perfectly balanced state); only prefixes that satisfy the real
		// constraint are recorded as candidates for rollback.
		best := -1
		bestGain := math.Inf(-1)
		for v := 0; v < n; v++ {
			if moved[v] {
				continue
			}
			from := side[v]
			diff := count[from] - 1 - (count[1-from] + 1)
			if diff < 0 {
				diff = -diff
			}
			if diff > maxImbalance+1 {
				continue
			}
			if gains[v] > bestGain {
				bestGain = gains[v]
				best = v
			}
		}
		if best == -1 {
			break
		}

		from := side[best]
		side[best] = 1 - from
		count[from]--
		count[1-from]++
		moved[best] = true
		curCut -= bestGain
		sequence = append(sequence, best)

		// Update neighbor gains incrementally.
		for _, e := range w.inc[best] {
			if moved[e.to] {
				continue
			}
			gains[e.to] = w.gain(side, e.to)
		}

		diffNow := count[0] - count[1]
		if diffNow < 0 {
			diffNow = -diffNow
		}
		if diffNow <= maxImbalance && curCut < bestCut-1e-12 {
			bestCut = curCut
			bestPrefix = len(sequence)
		}
	}

	// Roll back moves after the best prefix.
	for i := len(sequence) - 1; i >= bestPrefix; i-- {
		v := sequence[i]
		side[v] = 1 - side[v]
	}
	w.sequence = sequence

	return bestCut < startCut-1e-12, bestCut
}

// gain returns the cut-weight reduction achieved by moving v to the other
// side: (external incident weight) - (internal incident weight). With
// parallel edges each one contributes its own weight; the topology and
// job graphs partitioned here never create them.
func (w *Workspace) gain(side []int, v int) float64 {
	var external, internal float64
	for _, e := range w.inc[v] {
		if side[e.to] == side[v] {
			internal += e.w
		} else {
			external += e.w
		}
	}
	return external - internal
}

type inc struct {
	to int
	w  float64
}

// cutWeight returns the total weight of edges crossing the partition,
// summed in (U,V)-sorted edge order.
func (w *Workspace) cutWeight(side []int) float64 {
	var cut float64
	for _, e := range w.edges {
		if side[e.U] != side[e.V] {
			cut += e.Weight
		}
	}
	return cut
}

// ExhaustiveBipartition finds the optimal balanced bipartition by
// enumerating all 2^(n-1) assignments. It is used as a ground-truth oracle
// in tests and in the FM-quality ablation benchmark for graphs up to ~20
// vertices (vertex 0 is pinned to side 0 to break symmetry).
//
//lint:ignore deadcode oracle: the FM tests and the FM-quality benchmark compare against the optimal cut
func ExhaustiveBipartition(g *graph.Graph, maxDiff int) Result {
	n := g.NumVertices()
	if n == 0 {
		return Result{}
	}
	if maxDiff < 1 {
		maxDiff = 1
	}
	w := Workspace{edges: g.Edges()}
	bestCut := math.Inf(1)
	bestMask := uint64(0)
	for mask := uint64(0); mask < 1<<(n-1); mask++ {
		side := make([]int, n)
		ones := 0
		for v := 1; v < n; v++ {
			if mask&(1<<(v-1)) != 0 {
				side[v] = 1
				ones++
			}
		}
		diff := (n - ones) - ones
		if diff < 0 {
			diff = -diff
		}
		if diff > maxDiff {
			continue
		}
		if c := w.cutWeight(side); c < bestCut {
			bestCut = c
			bestMask = mask
		}
	}
	side := make([]int, n)
	for v := 1; v < n; v++ {
		if bestMask&(1<<(v-1)) != 0 {
			side[v] = 1
		}
	}
	return Result{Side: side, CutWeight: bestCut}
}
