// Package topology models the physical GPU system topology graph of §4.1.2
// of the paper: a multi-level weighted graph whose first level is the
// network, followed by machines, sockets, optional PCIe/NVLink switches,
// and finally GPUs. GPU vertices may additionally be connected directly to
// each other, representing NVLink peer-to-peer connections.
//
// Edge weights are qualitative distances: levels right above the GPUs have
// weight 1 and higher levels have progressively larger weights (the paper
// uses 1, 10, 20, 40 and 100 in Figure 7; the only constraint is that
// higher levels weigh more). Each link also carries a nominal unidirectional
// bandwidth used for the capacity constraint t_bw <= p_bw and for the
// effective-bandwidth estimates of the performance model.
package topology

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"gputopo/internal/graph"
	"gputopo/internal/heap"
)

// Level identifies the hierarchy level of a topology vertex (§4.1.2).
type Level int

// Levels from the root of the hierarchy down to the leaves.
const (
	LevelNetwork Level = iota
	LevelMachine
	LevelSocket
	LevelSwitch
	LevelGPU
)

// String returns the short name used in labels and renderings.
func (l Level) String() string {
	switch l {
	case LevelNetwork:
		return "Net"
	case LevelMachine:
		return "M"
	case LevelSocket:
		return "S"
	case LevelSwitch:
		return "SW"
	case LevelGPU:
		return "GPU"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// LinkType identifies the interconnect technology of an edge.
type LinkType int

// Interconnect technologies present in the paper's systems (Figure 1).
const (
	LinkNVLink  LinkType = iota // single-lane NVLink, 20 GB/s unidirectional
	LinkNVLink2                 // dual-lane NVLink, 40 GB/s unidirectional
	LinkPCIe                    // PCIe Gen3 x16, 16 GB/s unidirectional
	LinkXBus                    // inter-socket bus (X-Bus / QPI), bandwidth varies
	LinkNetwork                 // machine-to-machine network
)

// String returns the conventional name of the link technology.
func (t LinkType) String() string {
	switch t {
	case LinkNVLink:
		return "NVLink"
	case LinkNVLink2:
		return "NVLink2"
	case LinkPCIe:
		return "PCIe"
	case LinkXBus:
		return "X-Bus"
	case LinkNetwork:
		return "Network"
	default:
		return fmt.Sprintf("LinkType(%d)", int(t))
	}
}

// Nominal unidirectional bandwidths in GB/s (§1, §3.1 of the paper).
const (
	BandwidthNVLink  = 20.0
	BandwidthNVLink2 = 40.0
	BandwidthPCIe    = 16.0
	BandwidthXBus    = 32.0
	BandwidthNetwork = 12.5 // 100 Gb/s InfiniBand-class fabric
)

// Default qualitative level weights (Figure 7). Only their ordering
// matters; the ablation benchmark varies them to demonstrate insensitivity.
const (
	WeightGPUPeer = 1.0   // GPU-GPU direct NVLink edge
	WeightGPULink = 1.0   // GPU to its switch or socket
	WeightSwitch  = 10.0  // switch to socket
	WeightSocket  = 20.0  // socket to machine
	WeightMachine = 100.0 // machine to network
)

// Node is a vertex of the physical topology graph.
type Node struct {
	ID      int
	Level   Level
	Name    string
	Machine int // machine index, -1 for the network root
	Socket  int // socket index within the machine, -1 above socket level
	Index   int // GPU index within the machine, -1 for non-GPU nodes
}

// Link describes one physical interconnect edge.
type Link struct {
	A, B      int // node IDs, A < B
	Type      LinkType
	Bandwidth float64 // GB/s, unidirectional
	Weight    float64 // qualitative distance weight
}

// Topology is an immutable physical topology graph plus the derived
// GPU-to-GPU distance and bandwidth matrices. Build one with a builder
// (Power8Minsky, DGX1, PCIeBox, Cluster, or ParseMatrix) and share it
// freely: all methods are safe for concurrent readers.
//
// Machines are numbered once: machine m is the m-th machine vertex added,
// that vertex and the machine's GPUs carry Node.Machine == m (Build
// checks both, and that no machine is left without a GPU), and the GPUs
// hold the contiguous positions machineStart[m]..machineStart[m+1]-1.
// Every per-machine table here and in cluster.State is indexed by that m.
type Topology struct {
	Name string
	// RoutingPenalty divides the bottleneck bandwidth of routed (non-P2P)
	// paths, modelling the staging of transfers through host memory and
	// the contention on the inter-socket bus. Calibrated per machine
	// class against §3.2 of the paper (routingPenalty).
	RoutingPenalty float64

	nodes []Node
	links []Link

	gpus     []int // node IDs of GPU vertices, ordered by (machine, index)
	machines []int // machine -> node ID of its machine vertex

	// Dense position and machine tables.
	positions    []int     // 0..NumGPUs-1; GPUsOfMachine returns subslices of it
	machineOf    []int     // GPU position -> machine
	machineStart []int     // machine -> first GPU position, plus NumGPUs at the end
	sockets      [][]int   // machine -> socket indices holding a GPU, ascending
	socketGPUs   [][][]int // machine -> socket ordinal in sockets[m] -> GPU positions
	socketSize   []int     // GPU position -> GPU count of its socket
	socketBit    []uint64  // GPU position -> 1 << its socket's ordinal

	// Per-machine dense matrices, indexed by position minus machineStart.
	// Paths never route through other GPUs: real GPUs do not forward
	// traffic, so distances come from a search that only expands
	// host-infrastructure vertices (see search).
	intraDist [][][]float64
	intraBW   [][][]float64
	intraP2P  [][][]bool

	// Cross-machine composition: GPU -> machine-vertex distance plus
	// machine -> network-root distance, composed hierarchically so
	// cluster topologies need no dense GPU×GPU matrix.
	toRootDist []float64 // per GPU position
	toRootBW   []float64
	netDist    []float64 // per machine: machine vertex -> network root
	netBW      []float64
	hasNet     bool

	shapes    []string // MachineShape memo, per machine
	shapeOnce sync.Once

	// Smallest pair distance, precomputed at Build time so the placement
	// hot path (core.sideUtility calls MinPairDistance per recursion step)
	// reads one float instead of re-scanning every GPU of the cluster.
	minPairDist float64

	// Extreme-allocation memo: extreme[g] is BestAllocation(g), computed
	// once inside its entry's sync.Once, so concurrent readers sharing one
	// topology (the sweep engine's substrate cache) neither race nor
	// duplicate the greedy search. Cached slices are returned as-is and
	// must not be mutated.
	extreme []extremeEntry
}

// extremeEntry memoizes one extreme allocation and its pairwise-distance
// sum.
type extremeEntry struct {
	once sync.Once
	set  []int
	cost float64
}

// Builder incrementally constructs a Topology.
type Builder struct {
	t *Topology
}

// NewBuilder returns a Builder for a topology with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{t: &Topology{Name: name, RoutingPenalty: routingPenalty(true)}}
}

// SetRoutingPenalty overrides the routed-path bandwidth penalty.
func (b *Builder) SetRoutingPenalty(p float64) *Builder {
	b.t.RoutingPenalty = p
	return b
}

// AddNode adds a vertex at the given level and returns its ID.
func (b *Builder) AddNode(level Level, name string, machine, socket, index int) int {
	id := len(b.t.nodes)
	b.t.nodes = append(b.t.nodes, Node{
		ID: id, Level: level, Name: name,
		Machine: machine, Socket: socket, Index: index,
	})
	switch level {
	case LevelGPU:
		b.t.gpus = append(b.t.gpus, id)
	case LevelMachine:
		b.t.machines = append(b.t.machines, id)
	}
	return id
}

// AddLink connects two nodes with the given technology, bandwidth (GB/s)
// and qualitative weight.
func (b *Builder) AddLink(a, c int, typ LinkType, bandwidth, weight float64) *Builder {
	lo, hi := a, c
	if lo > hi {
		lo, hi = hi, lo
	}
	b.t.links = append(b.t.links, Link{A: lo, B: hi, Type: typ, Bandwidth: bandwidth, Weight: weight})
	return b
}

// Build finalizes the topology, computing the GPU distance, bandwidth and
// P2P matrices. The Builder must not be reused afterwards.
func (b *Builder) Build() *Topology {
	t := b.t
	b.t = nil
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

// NumGPUs returns the number of GPU vertices.
func (t *Topology) NumGPUs() int { return len(t.gpus) }

// NumMachines returns the number of machine vertices.
func (t *Topology) NumMachines() int { return len(t.machines) }

// GPU returns the node metadata of the GPU at position pos.
func (t *Topology) GPU(pos int) Node { return t.nodes[t.gpus[pos]] }

// MachineOf returns the machine of the GPU at position pos:
// GPU(pos).Machine, read from a dense table.
func (t *Topology) MachineOf(pos int) int { return t.machineOf[pos] }

// GPUsOfMachine returns the GPU positions belonging to machine m, nil for
// a machine the topology does not have. The returned slice is shared and
// must not be mutated.
func (t *Topology) GPUsOfMachine(m int) []int {
	if m < 0 || m >= len(t.machines) {
		return nil
	}
	lo, hi := t.machineStart[m], t.machineStart[m+1]
	return t.positions[lo:hi:hi]
}

// GPUsOfSocket returns the GPU positions of socket s on machine m, nil
// when no GPU sits there. The returned slice is shared and must not be
// mutated.
func (t *Topology) GPUsOfSocket(m, s int) []int {
	if ord, ok := slices.BinarySearch(t.Sockets(m), s); ok {
		return t.socketGPUs[m][ord]
	}
	return nil
}

// Sockets returns the distinct socket indices holding a GPU on machine m,
// ascending. The returned slice is shared and must not be mutated.
func (t *Topology) Sockets(m int) []int {
	if m < 0 || m >= len(t.machines) {
		return nil
	}
	return t.sockets[m]
}

// MaxSocketsPerMachine bounds the sockets of one machine: SocketBit packs
// a machine's sockets into one word.
const MaxSocketsPerMachine = 64

// SocketSize returns the number of GPUs on the socket of the GPU at pos —
// len(GPUsOfSocket) of its (machine, socket).
func (t *Topology) SocketSize(pos int) int { return t.socketSize[pos] }

// SocketBit returns the one-bit mask of the socket of the GPU at pos
// within its machine: two GPUs of one machine share a socket exactly when
// their bits are equal, so a set of GPUs on a machine ORs into the mask of
// the sockets it occupies there. Bits of different machines do not compare.
func (t *Topology) SocketBit(pos int) uint64 { return t.socketBit[pos] }

// Distance returns the shortest-path topological distance between the GPUs
// at positions a and b (0 when a == b). This realizes the path-distance
// definition of §4.1.2, with the physical restriction that paths never
// route through third GPUs (GPUs do not forward traffic).
func (t *Topology) Distance(a, b int) float64 {
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
func (t *Topology) RootDistance(pos int) float64 {
	if !t.hasNet {
		return 0
	}
	return t.toRootDist[pos]
}

// PathBandwidth returns the nominal bottleneck bandwidth (GB/s) along the
// shortest path between GPU positions a and b.
func (t *Topology) PathBandwidth(a, b int) float64 {
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
	return min(t.toRootBW[a], t.netBW[ma], t.netBW[mb], t.toRootBW[b])
}

// EffectiveBandwidth returns the bandwidth usable by GPU-to-GPU
// communication between positions a and b: the nominal bottleneck for
// peer-to-peer paths, or the bottleneck divided by the routing penalty when
// the transfer must be staged through host memory (§1: "communication ...
// routed through the main memory of the processors").
func (t *Topology) EffectiveBandwidth(a, b int) float64 {
	if a == b {
		return 0
	}
	if t.P2P(a, b) {
		return t.PathBandwidth(a, b)
	}
	return t.PathBandwidth(a, b) / t.RoutingPenalty
}

// P2P reports whether GPUs at positions a and b can communicate
// peer-to-peer: they share a direct NVLink edge, or their path traverses
// only PCIe switch vertices (no host routing).
func (t *Topology) P2P(a, b int) bool {
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

// SameMachine reports whether two GPU positions are on the same machine.
func (t *Topology) SameMachine(a, b int) bool { return t.machineOf[a] == t.machineOf[b] }

// SameSocket reports whether two GPU positions share machine and socket.
func (t *Topology) SameSocket(a, b int) bool {
	return t.machineOf[a] == t.machineOf[b] && t.socketBit[a] == t.socketBit[b]
}

// MinPairDistance returns the smallest non-zero GPU-to-GPU distance in the
// topology — the best case used to normalize communication cost. The value
// is precomputed at Build time: this accessor sits on the placement hot
// path (once per DRB recursion step) and profiles showed the former
// rescan-the-cluster implementation dominating scenario-2 runs.
func (t *Topology) MinPairDistance() float64 { return t.minPairDist }

// computeMinPairDistance scans for the smallest non-zero pair distance.
func (t *Topology) computeMinPairDistance() {
	lo := graph.Inf
	for _, m := range t.intraDist {
		for i := range m {
			for _, d := range m[i][i+1:] {
				lo = min(lo, d)
			}
		}
	}
	// Cross-machine candidate: the two cheapest GPU-to-root attachments
	// on distinct machines.
	if t.hasNet && len(t.machines) > 1 {
		lo = min(lo, t.cheapestCrossPair())
	}
	t.minPairDist = lo
}

// cheapestCrossPair returns the minimal cross-machine pair distance: the
// sum of the two cheapest GPU-to-network attachment costs on distinct
// machines.
func (t *Topology) cheapestCrossPair() float64 {
	type att struct {
		cost    float64
		machine int
	}
	best1 := att{cost: graph.Inf, machine: -1}
	best2 := att{cost: graph.Inf, machine: -1}
	for pos, mi := range t.machineOf {
		c := t.toRootDist[pos] + t.netDist[mi]
		if c < best1.cost {
			if best1.machine != mi {
				best2 = best1
			}
			best1 = att{cost: c, machine: mi}
		} else if mi != best1.machine && c < best2.cost {
			best2 = att{cost: c, machine: mi}
		}
	}
	if best1.machine == -1 || best2.machine == -1 {
		return graph.Inf
	}
	return best1.cost + best2.cost
}

// computeMatrices checks the machine numbering, fills the dense position,
// machine and socket tables, and derives the per-machine
// distance/bandwidth/P2P matrices and the hierarchical cross-machine
// aggregates from one search per GPU plus one from the network root.
func (t *Topology) computeMatrices() {
	n, nm := len(t.gpus), len(t.machines)
	for m, id := range t.machines {
		if got := t.nodes[id].Machine; got != m {
			panic(fmt.Sprintf("topology: machine vertex %s is added as machine %d but numbered %d; machines must be numbered 0..M-1 in the order they are added", t.nodes[id].Name, m, got))
		}
	}
	t.positions = make([]int, n)
	t.machineOf = make([]int, n)
	t.machineStart = make([]int, nm+1)
	for pos, id := range t.gpus {
		m := t.nodes[id].Machine
		if m < 0 || m >= nm {
			panic(fmt.Sprintf("topology: GPU %s is on machine %d, but the machine vertices are 0..%d", t.nodes[id].Name, m, nm-1))
		}
		t.positions[pos] = pos
		t.machineOf[pos] = m
		t.machineStart[m+1] = pos + 1 // GPUs are sorted by machine: the last write is m's end
	}
	for m := 0; m < nm; m++ {
		if t.machineStart[m+1] <= t.machineStart[m] {
			panic(fmt.Sprintf("topology: machine %d has no GPU", m))
		}
	}

	t.sockets = make([][]int, nm)
	t.socketGPUs = make([][][]int, nm)
	t.socketSize = make([]int, n)
	t.socketBit = make([]uint64, n)
	for m := range t.sockets {
		gpus := t.GPUsOfMachine(m)
		sockets := make([]int, len(gpus))
		for i, pos := range gpus {
			sockets[i] = t.nodes[t.gpus[pos]].Socket
		}
		slices.Sort(sockets)
		sockets = slices.Compact(sockets)
		if len(sockets) > MaxSocketsPerMachine {
			panic(fmt.Sprintf("topology: machine %d has %d sockets, at most %d are supported", m, len(sockets), MaxSocketsPerMachine))
		}
		t.sockets[m] = sockets
		t.socketGPUs[m] = make([][]int, len(sockets))
		for _, pos := range gpus {
			ord, _ := slices.BinarySearch(sockets, t.nodes[t.gpus[pos]].Socket)
			t.socketGPUs[m][ord] = append(t.socketGPUs[m][ord], pos)
			t.socketBit[pos] = 1 << ord
		}
		for _, on := range t.socketGPUs[m] {
			for _, pos := range on {
				t.socketSize[pos] = len(on)
			}
		}
	}

	t.toRootDist = make([]float64, n)
	t.toRootBW = make([]float64, n)
	t.intraDist = make([][][]float64, nm)
	t.intraBW = make([][][]float64, nm)
	t.intraP2P = make([][][]bool, nm)
	s := newSearch(t.nodes, t.links)
	for m, mv := range t.machines {
		gpus := t.GPUsOfMachine(m)
		k := len(gpus)
		t.intraDist[m] = make([][]float64, k)
		t.intraBW[m] = make([][]float64, k)
		t.intraP2P[m] = make([][]bool, k)
		for li, pos := range gpus {
			s.run(t.gpus[pos])
			t.intraDist[m][li] = make([]float64, k)
			t.intraBW[m][li] = make([]float64, k)
			t.intraP2P[m][li] = make([]bool, k)
			for lj, other := range gpus {
				dst := t.gpus[other]
				t.intraDist[m][li][lj] = s.dist[dst]
				t.intraBW[m][li][lj] = s.bw[dst]
				t.intraP2P[m][li][lj] = li != lj && s.dist[dst] < graph.Inf && !s.crossHost[dst]
			}
			t.toRootDist[pos] = s.dist[mv]
			t.toRootBW[pos] = s.bw[mv]
		}
	}

	// Network aggregates: distance and widest-path bandwidth from each
	// machine vertex to the (single) network root.
	netRoot := slices.IndexFunc(t.nodes, func(nd Node) bool { return nd.Level == LevelNetwork })
	t.hasNet = netRoot >= 0
	t.netDist = make([]float64, nm)
	t.netBW = make([]float64, nm)
	if t.hasNet {
		s.run(netRoot)
		for m, mv := range t.machines {
			t.netDist[m] = s.dist[mv]
			t.netBW[m] = s.bw[mv]
		}
	}

	t.computeMinPairDistance()
	t.extreme = make([]extremeEntry, n+1)
}

// search is Build's shortest-path scratch: the link adjacency with per-edge
// bandwidths and one set of per-vertex results, allocated once per Build.
// After run(src), dist, bw and crossHost hold, per vertex: the distance
// from src, the bottleneck bandwidth of the best path, and whether that
// path crossed a host vertex (socket, machine or network) — the P2P
// criterion.
type search struct {
	nodes     []Node
	adj       [][]edge
	dist, bw  []float64
	crossHost []bool
	touched   []int        // vertices the last run wrote; the next run resets only those
	pq        []searchItem // heap.Push/heap.Pop min-heap on d
}

type edge struct {
	to int
	w  float64
	bw float64
}

func newSearch(nodes []Node, links []Link) *search {
	s := &search{
		nodes:     nodes,
		adj:       make([][]edge, len(nodes)),
		dist:      make([]float64, len(nodes)),
		bw:        make([]float64, len(nodes)),
		crossHost: make([]bool, len(nodes)),
	}
	// One array holds every vertex's edges, each vertex's share sized by
	// its degree, so the appends below never grow a slice.
	deg := make([]int, len(nodes))
	for _, l := range links {
		deg[l.A]++
		deg[l.B]++
	}
	edges := make([]edge, 2*len(links))
	for v, d := range deg {
		s.adj[v], edges = edges[:0:d], edges[d:]
	}
	for _, l := range links {
		s.adj[l.A] = append(s.adj[l.A], edge{to: l.B, w: l.Weight, bw: l.Bandwidth})
		s.adj[l.B] = append(s.adj[l.B], edge{to: l.A, w: l.Weight, bw: l.Bandwidth})
	}
	for v := range s.dist {
		s.dist[v] = graph.Inf
	}
	return s
}

// run is Dijkstra from src where GPU vertices other than src are never
// expanded (they can terminate but not relay paths — physical GPUs do not
// forward traffic) and network vertices other than src are likewise
// terminal. A GPU-sourced run therefore stays inside its machine — it
// touches that machine's vertices and the network root, nothing else —
// and cross-machine distances compose hierarchically. Equal-distance ties
// go to the path relaxed first, which fixes bw and crossHost: the order
// the heap pops equal distances in is part of the result.
func (s *search) run(src int) {
	for _, v := range s.touched {
		s.dist[v], s.bw[v], s.crossHost[v] = graph.Inf, 0, false
	}
	s.touched = append(s.touched[:0], src)
	s.dist[src], s.bw[src] = 0, graph.Inf
	s.pq = append(s.pq[:0], searchItem{Val: int32(src)})
	for len(s.pq) > 0 {
		var it searchItem
		s.pq, it = heap.Pop(s.pq, nil)
		v, d := int(it.Val), it.A
		if d > s.dist[v] {
			continue
		}
		lvl := s.nodes[v].Level
		// GPUs and network roots other than the source terminate paths.
		if v != src && (lvl == LevelGPU || lvl == LevelNetwork) {
			continue
		}
		relayIsHost := lvl != LevelGPU && lvl != LevelSwitch
		for _, e := range s.adj[v] {
			nd := d + e.w
			if nd < s.dist[e.to]-1e-12 {
				s.dist[e.to] = nd
				s.bw[e.to] = min(s.bw[v], e.bw)
				s.crossHost[e.to] = s.crossHost[v] || relayIsHost
				s.touched = append(s.touched, e.to)
				s.pq = heap.Push(s.pq, searchItem{Key: heap.Key{A: nd}, Val: int32(e.to)}, nil)
			}
		}
	}
}

// searchItem is a vertex queued at a distance, keyed (d, 0, 0): distance
// alone, so equal distances pop in the order the heap's sift sequence
// gives them.
type searchItem = heap.Item[int32]
