package topology

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"gputopo/internal/graph"
)

// refTopology is the reference derivation TestMatricesEqualWholeGraphSearch
// holds the package to: commit 019748b's computeMatrices, its whole-graph
// restrictedDijkstra with the hand-rolled heap, and the accessors that read
// their tables, copied line for line. Only the receiver type is renamed
// (the parent's methods sat on Topology itself) and the two lines that
// initialised the extreme-allocation memo maps are dropped. It re-derives
// everything from the nodes and links of a built Topology — the Node.Machine
// keyed maps, the second machine numbering, the per-source cluster-sized
// scratch and all — so nothing the product shares with it can hide a
// difference. Do not simplify this file: its value is that it never changed.
type refTopology struct {
	nodes []Node
	links []Link

	gpus     []int
	machines []int

	machineOf    []int
	machineStart []int
	intraDist    [][][]float64
	intraBW      [][][]float64
	intraP2P     [][][]bool

	toRootDist []float64
	toRootBW   []float64
	netDist    []float64
	netBW      []float64
	hasNet     bool

	machineGPUs    map[int][]int
	socketGPUs     map[socketKey][]int
	machineSockets map[int][]int
	gpuMachine     []int
	socketSize     []int
	socketBit      []uint64

	adj     [][]adjEdge
	adjOnce sync.Once

	minPairDist float64
	maxPairDist float64
}

// newRefTopology rebuilds the parent's tables from a built topology's
// vertices and edges, ordering the GPUs with the parent's own sort.
func newRefTopology(built *Topology) *refTopology {
	t := &refTopology{nodes: built.nodes, links: built.links}
	for _, nd := range t.nodes {
		switch nd.Level {
		case LevelGPU:
			t.gpus = append(t.gpus, nd.ID)
		case LevelMachine:
			t.machines = append(t.machines, nd.ID)
		}
	}
	// Order GPUs by (machine, index) so that GPU positions are stable.
	sort.Slice(t.gpus, func(i, j int) bool {
		ni, nj := t.nodes[t.gpus[i]], t.nodes[t.gpus[j]]
		if ni.Machine != nj.Machine {
			return ni.Machine < nj.Machine
		}
		return ni.Index < nj.Index
	})
	t.computeMatrices()
	return t
}

// MachineOf returns the machine of the GPU at position pos:
// GPU(pos).Machine, read from a dense table.
func (t *refTopology) MachineOf(pos int) int { return t.gpuMachine[pos] }

// GPUsOfMachine returns the GPU positions belonging to machine m. The
// returned slice is shared and must not be mutated.
func (t *refTopology) GPUsOfMachine(m int) []int {
	if lst, ok := t.machineGPUs[m]; ok {
		return lst
	}
	return nil
}

// GPUsOfSocket returns the GPU positions of socket s on machine m. The
// returned slice is shared and must not be mutated.
func (t *refTopology) GPUsOfSocket(m, s int) []int {
	return t.socketGPUs[socketKey{m, s}]
}

// Sockets returns the distinct socket indices on machine m, ascending.
// The returned slice is shared and must not be mutated.
func (t *refTopology) Sockets(m int) []int {
	return t.machineSockets[m]
}

// SocketSize returns the number of GPUs on the socket of the GPU at pos —
// len(GPUsOfSocket) of its (machine, socket) without the map read.
func (t *refTopology) SocketSize(pos int) int { return t.socketSize[pos] }

// SocketBit returns the one-bit mask of the socket of the GPU at pos
// within its machine: two GPUs of one machine share a socket exactly when
// their bits are equal, so a set of GPUs on a machine ORs into the mask of
// the sockets it occupies there. Bits of different machines do not compare.
func (t *refTopology) SocketBit(pos int) uint64 { return t.socketBit[pos] }

// Distance returns the shortest-path topological distance between the GPUs
// at positions a and b (0 when a == b). This realizes the path-distance
// definition of §4.1.2, with the physical restriction that paths never
// route through third GPUs (GPUs do not forward traffic).
func (t *refTopology) Distance(a, b int) float64 {
	if a == b {
		return 0
	}
	ma, mb := t.machineOf[a], t.machineOf[b]
	if ma == mb {
		la, lb := a-t.machineStart[ma], b-t.machineStart[ma]
		return t.intraDist[ma][la][lb]
	}
	if !t.hasNet {
		return graph.Inf
	}
	return t.toRootDist[a] + t.netDist[ma] + t.netDist[mb] + t.toRootDist[b]
}

// RootDistance returns the attachment cost of the GPU at pos toward the
// network root: the toRootDist component of every cross-machine Distance.
// 0 when the topology has no network fabric (cross-machine distances are
// then infinite and the component never contributes).
func (t *refTopology) RootDistance(pos int) float64 {
	if !t.hasNet {
		return 0
	}
	return t.toRootDist[pos]
}

// PathBandwidth returns the nominal bottleneck bandwidth (GB/s) along the
// shortest path between GPU positions a and b.
func (t *refTopology) PathBandwidth(a, b int) float64 {
	if a == b {
		return 0
	}
	ma, mb := t.machineOf[a], t.machineOf[b]
	if ma == mb {
		la, lb := a-t.machineStart[ma], b-t.machineStart[ma]
		return t.intraBW[ma][la][lb]
	}
	if !t.hasNet {
		return 0
	}
	return min4(t.toRootBW[a], t.netBW[ma], t.netBW[mb], t.toRootBW[b])
}

// P2P reports whether GPUs at positions a and b can communicate
// peer-to-peer: they share a direct NVLink edge, or their path traverses
// only PCIe switch vertices (no host routing).
func (t *refTopology) P2P(a, b int) bool {
	if a == b {
		return false
	}
	ma, mb := t.machineOf[a], t.machineOf[b]
	if ma != mb {
		return false
	}
	la, lb := a-t.machineStart[ma], b-t.machineStart[ma]
	return t.intraP2P[ma][la][lb]
}

func min4(a, b, c, d float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	if d < m {
		m = d
	}
	return m
}

// MinPairDistance returns the smallest non-zero GPU-to-GPU distance in the
// topology — the best case used to normalize communication cost. The value
// is precomputed at Build time: this accessor sits on the placement hot
// path (once per DRB recursion step) and profiles showed the former
// rescan-the-cluster implementation dominating scenario-2 runs.
func (t *refTopology) MinPairDistance() float64 { return t.minPairDist }

// MaxPairDistance returns the largest GPU-to-GPU distance — the worst case
// t_w used by the objective function normalization (Eq. 1). Precomputed at
// Build time.
func (t *refTopology) MaxPairDistance() float64 { return t.maxPairDist }

// computeMinPairDistance scans for the smallest non-zero pair distance.
func (t *refTopology) computeMinPairDistance() float64 {
	best := graph.Inf
	// Intra-machine candidates.
	for mi := range t.intraDist {
		m := t.intraDist[mi]
		for i := range m {
			for j := i + 1; j < len(m); j++ {
				if m[i][j] < best {
					best = m[i][j]
				}
			}
		}
	}
	// Cross-machine candidates: the two cheapest GPU-to-root attachments
	// on distinct machines.
	if t.hasNet && len(t.machineStart) > 1 {
		best = minFloat(best, t.extremeCrossPair(false))
	}
	return best
}

// computeMaxPairDistance scans for the largest finite pair distance.
func (t *refTopology) computeMaxPairDistance() float64 {
	worst := 0.0
	for mi := range t.intraDist {
		m := t.intraDist[mi]
		for i := range m {
			for j := i + 1; j < len(m); j++ {
				if m[i][j] > worst && m[i][j] < graph.Inf {
					worst = m[i][j]
				}
			}
		}
	}
	if t.hasNet && len(t.machineStart) > 1 {
		if c := t.extremeCrossPair(true); c > worst && c < graph.Inf {
			worst = c
		}
	}
	return worst
}

// extremeCrossPair returns the minimal (or maximal) cross-machine pair
// distance: the sum of the two extreme GPU-to-network attachment costs on
// distinct machines.
func (t *refTopology) extremeCrossPair(maximize bool) float64 {
	type att struct {
		cost    float64
		machine int
	}
	best1 := att{cost: graph.Inf, machine: -1}
	best2 := att{cost: graph.Inf, machine: -1}
	if maximize {
		best1.cost, best2.cost = -1, -1
	}
	better := func(a, b float64) bool {
		if maximize {
			return a > b
		}
		return a < b
	}
	for pos := range t.gpus {
		mi := t.machineOf[pos]
		c := t.toRootDist[pos] + t.netDist[mi]
		if better(c, best1.cost) {
			if best1.machine != mi {
				best2 = best1
			}
			best1 = att{cost: c, machine: mi}
		} else if mi != best1.machine && better(c, best2.cost) {
			best2 = att{cost: c, machine: mi}
		}
	}
	if best1.machine == -1 || best2.machine == -1 {
		if maximize {
			return 0
		}
		return graph.Inf
	}
	return best1.cost + best2.cost
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// socketKey identifies a socket by (machine value, socket index).
type socketKey struct{ Machine, Socket int }

// computeMatrices derives the per-machine distance/bandwidth/P2P matrices
// and the hierarchical cross-machine aggregates. Distances use a
// restricted Dijkstra that never expands a GPU vertex other than the
// source: physical GPUs do not forward traffic, so a GPU can terminate a
// path but never relay one.
func (t *refTopology) computeMatrices() {
	t.machineGPUs = map[int][]int{}
	t.socketGPUs = map[socketKey][]int{}
	t.machineSockets = map[int][]int{}
	for pos, id := range t.gpus {
		nd := t.nodes[id]
		t.machineGPUs[nd.Machine] = append(t.machineGPUs[nd.Machine], pos)
		k := socketKey{nd.Machine, nd.Socket}
		if len(t.socketGPUs[k]) == 0 {
			t.machineSockets[nd.Machine] = append(t.machineSockets[nd.Machine], nd.Socket)
		}
		t.socketGPUs[k] = append(t.socketGPUs[k], pos)
	}
	for m, sockets := range t.machineSockets {
		sort.Ints(sockets)
		if len(sockets) > MaxSocketsPerMachine {
			panic(fmt.Sprintf("topology: machine %d has %d sockets, at most %d are supported", m, len(sockets), MaxSocketsPerMachine))
		}
	}
	t.gpuMachine = make([]int, len(t.gpus))
	t.socketSize = make([]int, len(t.gpus))
	t.socketBit = make([]uint64, len(t.gpus))
	for pos, id := range t.gpus {
		nd := t.nodes[id]
		t.gpuMachine[pos] = nd.Machine
		t.socketSize[pos] = len(t.socketGPUs[socketKey{nd.Machine, nd.Socket}])
		ord, _ := slices.BinarySearch(t.machineSockets[nd.Machine], nd.Socket)
		t.socketBit[pos] = 1 << ord
	}

	n := len(t.gpus)
	t.machineOf = make([]int, n)
	// Machine order indices follow the sorted GPU ordering, so each
	// machine's GPU positions are contiguous.
	var machineIDs []int // distinct Node.Machine values, in position order
	for pos, id := range t.gpus {
		m := t.nodes[id].Machine
		if len(machineIDs) == 0 || machineIDs[len(machineIDs)-1] != m {
			machineIDs = append(machineIDs, m)
			t.machineStart = append(t.machineStart, pos)
		}
		t.machineOf[pos] = len(machineIDs) - 1
	}

	t.toRootDist = make([]float64, n)
	t.toRootBW = make([]float64, n)
	t.intraDist = make([][][]float64, len(machineIDs))
	t.intraBW = make([][][]float64, len(machineIDs))
	t.intraP2P = make([][][]bool, len(machineIDs))

	// Machine-vertex node ID per machine order index.
	machineNode := make([]int, len(machineIDs))
	for mi, mID := range machineIDs {
		machineNode[mi] = -1
		for _, nodeID := range t.machines {
			if t.nodes[nodeID].Machine == mID {
				machineNode[mi] = nodeID
				break
			}
		}
	}

	for mi := range machineIDs {
		start := t.machineStart[mi]
		end := n
		if mi+1 < len(t.machineStart) {
			end = t.machineStart[mi+1]
		}
		k := end - start
		t.intraDist[mi] = make([][]float64, k)
		t.intraBW[mi] = make([][]float64, k)
		t.intraP2P[mi] = make([][]bool, k)
		for li := 0; li < k; li++ {
			src := t.gpus[start+li]
			dist, bw, crossHost := t.restrictedDijkstra(src)
			t.intraDist[mi][li] = make([]float64, k)
			t.intraBW[mi][li] = make([]float64, k)
			t.intraP2P[mi][li] = make([]bool, k)
			for lj := 0; lj < k; lj++ {
				dst := t.gpus[start+lj]
				t.intraDist[mi][li][lj] = dist[dst]
				t.intraBW[mi][li][lj] = bw[dst]
				t.intraP2P[mi][li][lj] = li != lj && dist[dst] < graph.Inf && !crossHost[dst]
			}
			if mv := machineNode[mi]; mv >= 0 {
				t.toRootDist[start+li] = dist[mv]
				t.toRootBW[start+li] = bw[mv]
			}
		}
	}

	// Network aggregates: distance and widest-path bandwidth from each
	// machine vertex to the (single) network root.
	netRoot := -1
	for _, nd := range t.nodes {
		if nd.Level == LevelNetwork {
			netRoot = nd.ID
			break
		}
	}
	t.hasNet = netRoot >= 0
	t.netDist = make([]float64, len(machineIDs))
	t.netBW = make([]float64, len(machineIDs))
	if t.hasNet {
		dist, bw, _ := t.restrictedDijkstra(netRoot)
		for mi, mv := range machineNode {
			if mv >= 0 {
				t.netDist[mi] = dist[mv]
				t.netBW[mi] = bw[mv]
			} else {
				t.netDist[mi] = graph.Inf
			}
		}
	}

	t.minPairDist = t.computeMinPairDistance()
	t.maxPairDist = t.computeMaxPairDistance()
}

// restrictedDijkstra runs Dijkstra from src over the topology where GPU
// vertices other than src are never expanded (they can terminate but not
// relay paths — physical GPUs do not forward traffic) and network vertices
// other than src are likewise terminal (confining GPU-sourced searches to
// their machine; cross-machine distances compose hierarchically). It
// returns, per node: the distance, the bottleneck bandwidth of the best
// path, and whether that path crossed a host vertex (socket, machine or
// network) — the P2P criterion.
func (t *refTopology) restrictedDijkstra(src int) (dist, bw []float64, crossHost []bool) {
	nn := len(t.nodes)
	dist = make([]float64, nn)
	bw = make([]float64, nn)
	crossHost = make([]bool, nn)
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[src] = 0
	bw[src] = graph.Inf

	t.adjOnce.Do(t.buildAdjacency)

	pq := &topoHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		it := heapPop(pq)
		if it.d > dist[it.v] {
			continue
		}
		lvl := t.nodes[it.v].Level
		// GPUs and network roots other than the source terminate paths.
		if it.v != src && (lvl == LevelGPU || lvl == LevelNetwork) {
			continue
		}
		relayIsHost := lvl != LevelGPU && lvl != LevelSwitch
		for _, e := range t.adj[it.v] {
			nd := it.d + e.w
			if nd < dist[e.to]-1e-12 {
				dist[e.to] = nd
				nb := bw[it.v]
				if e.bw < nb {
					nb = e.bw
				}
				bw[e.to] = nb
				crossHost[e.to] = crossHost[it.v] || relayIsHost
				heapPush(pq, topoItem{v: e.to, d: nd})
			}
		}
	}
	return dist, bw, crossHost
}

type adjEdge struct {
	to int
	w  float64
	bw float64
}

// buildAdjacency materializes the link adjacency with per-edge bandwidths,
// shared by all restrictedDijkstra calls.
func (t *refTopology) buildAdjacency() {
	t.adj = make([][]adjEdge, len(t.nodes))
	for _, l := range t.links {
		t.adj[l.A] = append(t.adj[l.A], adjEdge{to: l.B, w: l.Weight, bw: l.Bandwidth})
		t.adj[l.B] = append(t.adj[l.B], adjEdge{to: l.A, w: l.Weight, bw: l.Bandwidth})
	}
}

type topoItem struct {
	v int
	d float64
}

type topoHeap []topoItem

func (h topoHeap) less(i, j int) bool { return h[i].d < h[j].d }
func (h topoHeap) Len() int           { return len(h) }

func heapPush(h *topoHeap, it topoItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func heapPop(h *topoHeap) topoItem {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(*h) && (*h).less(l, smallest) {
			smallest = l
		}
		if r < len(*h) && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// machineShape builds machine mi's shape string.
func (t *refTopology) machineShape(mi int) string {
	start := t.machineStart[mi]
	end := len(t.gpus)
	if mi+1 < len(t.machineStart) {
		end = t.machineStart[mi+1]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "k%d;net%g", end-start, t.netDist[mi])
	for _, row := range t.intraDist[mi] {
		for _, d := range row {
			fmt.Fprintf(&sb, ",%g", d)
		}
	}
	sb.WriteString(";root")
	for pos := start; pos < end; pos++ {
		fmt.Fprintf(&sb, ",%g", t.toRootDist[pos])
	}
	return sb.String()
}
