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
type Topology struct {
	Name string
	// RoutingPenalty divides the bottleneck bandwidth of routed (non-P2P)
	// paths, modelling the staging of transfers through host memory and
	// the contention on the inter-socket bus. Calibrated per machine
	// class against §3.2 of the paper (see DESIGN.md).
	RoutingPenalty float64

	nodes []Node
	links []Link
	g     *graph.Graph

	gpus     []int // node IDs of GPU vertices, ordered by (machine, index)
	machines []int // node IDs of machine vertices

	// Per-machine dense matrices (GPU positions of a machine are
	// contiguous, so machineStart[m] maps positions to local indices).
	// Paths never route through other GPUs: real GPUs do not forward
	// traffic, so distances use a restricted Dijkstra that only expands
	// host-infrastructure vertices.
	machineOf    []int // GPU position -> machine order index (0..NumMachines-1)
	machineStart []int // machine order index -> first GPU position
	intraDist    [][][]float64
	intraBW      [][][]float64
	intraP2P     [][][]bool

	// Cross-machine composition: GPU -> machine-vertex distance plus
	// machine -> network-root distance, composed hierarchically so
	// cluster topologies need no dense GPU×GPU matrix.
	toRootDist []float64 // per GPU position
	toRootBW   []float64
	netDist    []float64 // per machine order index: machine vertex -> network root
	netBW      []float64
	hasNet     bool

	// Lookup tables built once: machine value -> GPU positions, socket
	// membership, and socket indices per machine.
	machineGPUs    map[int][]int
	socketGPUs     map[socketKey][]int
	machineSockets map[int][]int
	// Dense per-GPU views of the node and socket tables for the placement
	// hot path: the position's machine (Node.Machine), the GPU count of
	// its socket, and the bit of that socket's ordinal within the machine
	// (ascending socket index).
	gpuMachine []int
	socketSize []int
	socketBit  []uint64

	adj     [][]adjEdge
	adjOnce sync.Once

	shapes    []string // MachineShape memo, per machine order index
	shapeOnce sync.Once

	// Extreme pair distances, precomputed at Build time so the placement
	// hot path (core.sideUtility calls MinPairDistance per recursion step)
	// reads two floats instead of re-scanning every GPU of the cluster.
	minPairDist float64
	maxPairDist float64

	// Extreme-allocation memoization. The maps are guarded by mu; each
	// size's result is computed exactly once inside its entry's sync.Once,
	// so concurrent readers sharing one topology (the sweep engine's
	// substrate cache) neither race nor duplicate the expensive greedy
	// search. Cached slices are returned as-is and must not be mutated.
	mu         sync.Mutex
	extremeMin map[int]*extremeEntry // cached BestAllocation by g
	extremeMax map[int]*extremeEntry // cached WorstAllocation by g
}

// extremeEntry memoizes one extreme allocation and its pairwise-distance
// sum. The once gate makes initialization safe and single-shot under
// concurrent readers without holding the topology mutex during the search.
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
	return &Builder{t: &Topology{
		Name:           name,
		RoutingPenalty: 3.5,
		g:              graph.New(),
	}}
}

// SetRoutingPenalty overrides the routed-path bandwidth penalty.
func (b *Builder) SetRoutingPenalty(p float64) *Builder {
	b.t.RoutingPenalty = p
	return b
}

// AddNode adds a vertex at the given level and returns its ID.
func (b *Builder) AddNode(level Level, name string, machine, socket, index int) int {
	id := b.t.g.AddVertex(name)
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
	b.t.g.AddEdge(a, c, weight)
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

// NumNodes returns the total number of vertices at all levels.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Node returns the metadata of node id.
func (t *Topology) Node(id int) Node { return t.nodes[id] }

// Links returns a copy of all physical links.
func (t *Topology) Links() []Link { return append([]Link(nil), t.links...) }

// GPUID returns the node ID of the GPU at position pos (0-based, ordered by
// machine then local index).
func (t *Topology) GPUID(pos int) int { return t.gpus[pos] }

// GPUPosition returns the position of the GPU with the given node ID, or -1.
func (t *Topology) GPUPosition(nodeID int) int {
	for i, id := range t.gpus {
		if id == nodeID {
			return i
		}
	}
	return -1
}

// GPU returns the node metadata of the GPU at position pos.
func (t *Topology) GPU(pos int) Node { return t.nodes[t.gpus[pos]] }

// MachineOf returns the machine of the GPU at position pos:
// GPU(pos).Machine, read from a dense table.
func (t *Topology) MachineOf(pos int) int { return t.gpuMachine[pos] }

// GPUsOfMachine returns the GPU positions belonging to machine m. The
// returned slice is shared and must not be mutated.
func (t *Topology) GPUsOfMachine(m int) []int {
	if lst, ok := t.machineGPUs[m]; ok {
		return lst
	}
	return nil
}

// GPUsOfSocket returns the GPU positions of socket s on machine m. The
// returned slice is shared and must not be mutated.
func (t *Topology) GPUsOfSocket(m, s int) []int {
	return t.socketGPUs[socketKey{m, s}]
}

// Sockets returns the distinct socket indices on machine m, ascending.
// The returned slice is shared and must not be mutated.
func (t *Topology) Sockets(m int) []int {
	return t.machineSockets[m]
}

// NumSockets returns the total socket count across all machines.
func (t *Topology) NumSockets() int { return len(t.socketGPUs) }

// MaxSocketsPerMachine bounds the sockets of one machine: SocketBit packs
// a machine's sockets into one word.
const MaxSocketsPerMachine = 64

// SocketSize returns the number of GPUs on the socket of the GPU at pos —
// len(GPUsOfSocket) of its (machine, socket) without the map read.
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
	return min4(t.toRootBW[a], t.netBW[ma], t.netBW[mb], t.toRootBW[b])
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

// SameMachine reports whether two GPU positions are on the same machine.
func (t *Topology) SameMachine(a, b int) bool {
	return t.nodes[t.gpus[a]].Machine == t.nodes[t.gpus[b]].Machine
}

// SameSocket reports whether two GPU positions share machine and socket.
func (t *Topology) SameSocket(a, b int) bool {
	na, nb := t.nodes[t.gpus[a]], t.nodes[t.gpus[b]]
	return na.Machine == nb.Machine && na.Socket == nb.Socket
}

// MinPairDistance returns the smallest non-zero GPU-to-GPU distance in the
// topology — the best case used to normalize communication cost. The value
// is precomputed at Build time: this accessor sits on the placement hot
// path (once per DRB recursion step) and profiles showed the former
// rescan-the-cluster implementation dominating scenario-2 runs.
func (t *Topology) MinPairDistance() float64 { return t.minPairDist }

// MaxPairDistance returns the largest GPU-to-GPU distance — the worst case
// t_w used by the objective function normalization (Eq. 1). Precomputed at
// Build time.
func (t *Topology) MaxPairDistance() float64 { return t.maxPairDist }

// computeMinPairDistance scans for the smallest non-zero pair distance.
func (t *Topology) computeMinPairDistance() float64 {
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
func (t *Topology) computeMaxPairDistance() float64 {
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
func (t *Topology) extremeCrossPair(maximize bool) float64 {
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

// Graph exposes the underlying weighted graph (read-only use).
func (t *Topology) Graph() *graph.Graph { return t.g }

// socketKey identifies a socket by (machine value, socket index).
type socketKey struct{ Machine, Socket int }

// computeMatrices derives the per-machine distance/bandwidth/P2P matrices
// and the hierarchical cross-machine aggregates. Distances use a
// restricted Dijkstra that never expands a GPU vertex other than the
// source: physical GPUs do not forward traffic, so a GPU can terminate a
// path but never relay one.
func (t *Topology) computeMatrices() {
	t.extremeMin = map[int]*extremeEntry{}
	t.extremeMax = map[int]*extremeEntry{}

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
func (t *Topology) restrictedDijkstra(src int) (dist, bw []float64, crossHost []bool) {
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
func (t *Topology) buildAdjacency() {
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
