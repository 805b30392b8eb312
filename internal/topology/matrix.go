package topology

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// The prototype in the paper discovers the GPU topology at startup by
// running `nvidia-smi topo --matrix` and `numactl --hardware` (§5.1). We
// reproduce that code path with a parser for the same matrix format, so a
// Topology can be built from discovery output instead of a hard-coded
// builder. The recognized connectivity tokens follow nvidia-smi:
//
//	NV2  dual-lane NVLink between the two GPUs
//	NV1  single-lane NVLink
//	PIX  same PCIe switch
//	PHB  same socket, through the host bridge
//	SYS  across sockets, through the system bus
//	X    the diagonal
//
// Socket membership comes from the CPU-affinity column when the dump has
// one (GPUs sharing an affinity range share a socket — that is how the
// prototype combines `nvidia-smi topo --matrix` with `numactl --hardware`);
// otherwise it is inferred from connectivity: GPUs joined by NV#, PIX or
// PHB share a socket; SYS separates sockets.

// ErrMatrixRows reports a mismatch between the GPU count of the header
// and the number of matrix rows — both missing rows and unexpected
// trailing GPU rows. Trailing non-GPU device rows (NIC0, mlx5_0, ...)
// and legend text are tolerated, matching real nvidia-smi output.
var ErrMatrixRows = errors.New("topology: matrix row count does not match GPU header count")

// matrixLayout is the validated content of one connectivity matrix: the
// per-pair tokens plus the socket partition. It can be stamped into a
// builder any number of times (ParseMatrix stamps it once; MatrixCluster
// stamps it per machine under a network root).
type matrixLayout struct {
	n          int
	tokens     [][]string
	socketOf   []int
	numSockets int
	hasNVLink  bool // any NV1/NV2 token — decides the routing penalty (routingPenalty)
}

// parseMatrixLayout validates an nvidia-smi-style connectivity matrix.
// The first line must be a header of GPU names; each subsequent line is
// "GPUi TOKEN TOKEN ..." with exactly one token per GPU, optionally
// followed by a CPU-affinity column. Exactly one row per header GPU is
// required (ErrMatrixRows otherwise).
func parseMatrixLayout(text string) (*matrixLayout, error) {
	lines := nonEmptyLines(text)
	if len(lines) < 2 {
		return nil, fmt.Errorf("topology: matrix needs a header and at least one row")
	}
	header := strings.Fields(lines[0])
	var gpuNames []string
	for _, h := range header {
		if strings.HasPrefix(h, "GPU") {
			gpuNames = append(gpuNames, h)
		}
	}
	n := len(gpuNames)
	if n == 0 {
		return nil, fmt.Errorf("topology: no GPU columns in header %q", lines[0])
	}
	if len(lines)-1 < n {
		return nil, fmt.Errorf("%w: %d rows for %d GPUs", ErrMatrixRows, len(lines)-1, n)
	}
	for _, line := range lines[n+1:] {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "Legend") {
			break // real nvidia-smi output ends with a legend block
		}
		// Real dumps list NIC/HCA rows after the GPUs; only a trailing
		// *GPU* row means the header and body disagree.
		if strings.HasPrefix(trimmed, "GPU") {
			return nil, fmt.Errorf("%w: unexpected trailing row %q after %d GPU rows", ErrMatrixRows, line, n)
		}
	}

	tokens := make([][]string, n)
	affinity := make([]string, n)
	haveAffinity := len(header) > n
	for i := 0; i < n; i++ {
		fields := strings.Fields(lines[i+1])
		if len(fields) < n+1 {
			return nil, fmt.Errorf("topology: row %q has %d fields, want >= %d", lines[i+1], len(fields), n+1)
		}
		if fields[0] != gpuNames[i] {
			return nil, fmt.Errorf("topology: row %d is %q, want %q", i, fields[0], gpuNames[i])
		}
		tokens[i] = fields[1 : n+1]
		if len(fields) > n+1 {
			affinity[i] = fields[n+1]
		} else {
			haveAffinity = false
		}
	}

	// Validate tokens and symmetry.
	hasNV := false
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tok := tokens[i][j]
			if i == j {
				if tok != "X" {
					return nil, fmt.Errorf("topology: diagonal entry (%d,%d) is %q, want X", i, j, tok)
				}
				continue
			}
			switch tok {
			case "NV1", "NV2":
				hasNV = true
			case "PIX", "PHB", "SYS":
			default:
				return nil, fmt.Errorf("topology: unknown connectivity token %q at (%d,%d)", tok, i, j)
			}
			if tokens[j][i] != tok {
				return nil, fmt.Errorf("topology: matrix asymmetric at (%d,%d): %q vs %q", i, j, tok, tokens[j][i])
			}
		}
	}

	lay := &matrixLayout{n: n, tokens: tokens, hasNVLink: hasNV}
	if haveAffinity {
		// CPU-affinity column: GPUs with identical affinity share a
		// socket. This survives formats where NVLink spans sockets (the
		// DGX-1 cube mesh joins every GPU pair transitively, so
		// connectivity alone would collapse the machine to one socket).
		lay.socketOf = make([]int, n)
		seen := map[string]int{}
		for i, a := range affinity {
			s, ok := seen[a]
			if !ok {
				s = len(seen)
				seen[a] = s
			}
			lay.socketOf[i] = s
		}
		lay.numSockets = len(seen)
		return lay.checkSockets()
	}

	// No affinity column: union-find over "same socket" relations
	// (anything but SYS).
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if tokens[i][j] != "SYS" {
				union(i, j)
			}
		}
	}
	lay.socketOf = make([]int, n)
	rootSocket := map[int]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := rootSocket[r]; !ok {
			rootSocket[r] = len(rootSocket)
		}
		lay.socketOf[i] = rootSocket[r]
	}
	lay.numSockets = len(rootSocket)
	return lay.checkSockets()
}

// checkSockets rejects a layout with more sockets than one machine's
// socket mask holds (Topology.SocketBit).
func (lay *matrixLayout) checkSockets() (*matrixLayout, error) {
	if lay.numSockets > MaxSocketsPerMachine {
		return nil, fmt.Errorf("topology: matrix describes %d sockets, at most %d per machine are supported", lay.numSockets, MaxSocketsPerMachine)
	}
	return lay, nil
}

// stamp appends one machine with this layout to the builder (machine index
// m, linked to netID when >= 0). GPUs behind a shared PIX switch hang off
// one switch vertex; GPUs with NV2 peers take an NVLink2 host link
// (Minsky style); GPUs with only NV1 peers sit behind a private PCIe
// switch (DGX-1 style — the switch is invisible in the matrix because
// NVLink tokens shadow PCIe relations, but its hop cost is real); the rest
// attach straight to their socket over PCIe.
func (lay *matrixLayout) stamp(b *Builder, m int, w LevelWeights, netID int) {
	n := lay.n
	mID := addMachineVertex(b, m, w, netID)
	socketID := make([]int, lay.numSockets)
	for s := 0; s < lay.numSockets; s++ {
		socketID[s] = b.AddNode(LevelSocket, fmt.Sprintf("M%d/S%d", m, s), m, s, -1)
		b.AddLink(mID, socketID[s], LinkXBus, BandwidthXBus, w.Socket)
	}

	// PIX pairs share a switch; build one switch per PIX-connected group.
	switchOf := make([]int, n) // switch node ID per GPU, -1 = none yet
	for i := range switchOf {
		switchOf[i] = -1
	}
	gpuID := make([]int, n)
	for i := 0; i < n; i++ {
		gpuID[i] = b.AddNode(LevelGPU, fmt.Sprintf("M%d/GPU%d", m, i), m, lay.socketOf[i], i)
	}
	swCount := 0
	hasToken := func(i int, want string) bool {
		for j := 0; j < n; j++ {
			if j != i && lay.tokens[i][j] == want {
				return true
			}
		}
		return false
	}
	addSwitch := func(socket int) int {
		sw := b.AddNode(LevelSwitch, fmt.Sprintf("M%d/SW%d", m, swCount), m, socket, -1)
		swCount++
		b.AddLink(socketID[socket], sw, LinkPCIe, BandwidthPCIe, w.Switch)
		return sw
	}
	for i := 0; i < n; i++ {
		if switchOf[i] != -1 || !hasToken(i, "PIX") {
			continue
		}
		sw := addSwitch(lay.socketOf[i])
		switchOf[i] = sw
		b.AddLink(gpuID[i], sw, LinkPCIe, BandwidthPCIe, w.GPULink)
		for j := i + 1; j < n; j++ {
			if lay.tokens[i][j] == "PIX" && switchOf[j] == -1 {
				switchOf[j] = sw
				b.AddLink(gpuID[j], sw, LinkPCIe, BandwidthPCIe, w.GPULink)
			}
		}
	}
	for i := 0; i < n; i++ {
		if switchOf[i] != -1 {
			continue
		}
		switch {
		case hasToken(i, "NV2"):
			// NVLink-to-host (Minsky): the host link is NVLink2.
			b.AddLink(gpuID[i], socketID[lay.socketOf[i]], LinkNVLink2, BandwidthNVLink2, w.GPULink)
		case hasToken(i, "NV1"):
			// Single-lane NVLink peers but a PCIe host path (DGX-1): the
			// GPU sits behind a PCIe switch the matrix cannot show.
			sw := addSwitch(lay.socketOf[i])
			b.AddLink(gpuID[i], sw, LinkPCIe, BandwidthPCIe, w.GPULink)
		default:
			b.AddLink(gpuID[i], socketID[lay.socketOf[i]], LinkPCIe, BandwidthPCIe, w.GPULink)
		}
	}
	// Direct NVLink edges.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch lay.tokens[i][j] {
			case "NV2":
				b.AddLink(gpuID[i], gpuID[j], LinkNVLink2, BandwidthNVLink2, w.GPUPeer)
			case "NV1":
				b.AddLink(gpuID[i], gpuID[j], LinkNVLink, BandwidthNVLink, w.GPUPeer)
			}
		}
	}
}

// ParseMatrix builds a single-machine topology from an nvidia-smi-style
// connectivity matrix (see parseMatrixLayout for the accepted format).
func ParseMatrix(text string) (*Topology, error) {
	return ParseMatrixWeights(text, DefaultWeights())
}

// ParseMatrixWeights is ParseMatrix with custom level weights.
func ParseMatrixWeights(text string, w LevelWeights) (*Topology, error) {
	return matrixTopology(text, "discovered", 1, true, w)
}

// MatrixCluster builds a homogeneous cluster of n machines joined by a
// network vertex, each stamped from the same discovered connectivity
// matrix — real nvidia-smi dumps become sweepable cluster substrates.
//
//lint:ignore deadcode test helper: topology and domains tests build matrix clusters through it
func MatrixCluster(text string, n int) (*Topology, error) {
	return MatrixClusterWeights(text, n, DefaultWeights())
}

// MatrixClusterWeights is MatrixCluster with custom level weights.
func MatrixClusterWeights(text string, n int, w LevelWeights) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: matrix cluster needs at least one machine, got %d", n)
	}
	return matrixTopology(text, fmt.Sprintf("Cluster-%dxdiscovered", n), n, false, w)
}

func matrixTopology(text, name string, n int, standalone bool, w LevelWeights) (*Topology, error) {
	lay, err := parseMatrixLayout(text)
	if err != nil {
		return nil, err
	}
	w = w.orDefault()
	return assemble(name, lay.hasNVLink, n, standalone, func(b *Builder, m, netID int) {
		lay.stamp(b, m, w, netID)
	}), nil
}

// RenderMatrix emits the nvidia-smi-style connectivity matrix of a
// single-machine topology — the inverse of ParseMatrix, used by the topoviz
// tool and by round-trip tests. The CPU-affinity column encodes socket
// membership (eight synthetic CPU ids per socket), which is what lets
// ParseMatrix recover the socket partition even when NVLink edges span
// sockets (DGX-1's cube mesh).
func (t *Topology) RenderMatrix() string {
	n := t.NumGPUs()
	var sb strings.Builder
	sb.WriteString("     ")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%-6s", fmt.Sprintf("GPU%d", i))
	}
	sb.WriteString("CPUAffinity\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%-5s", fmt.Sprintf("GPU%d", i))
		for j := 0; j < n; j++ {
			fmt.Fprintf(&sb, "%-6s", t.connectivityToken(i, j))
		}
		s := t.GPU(i).Socket
		fmt.Fprintf(&sb, "%d-%d\n", 8*s, 8*s+7)
	}
	return sb.String()
}

func (t *Topology) connectivityToken(i, j int) string {
	if i == j {
		return "X"
	}
	gi, gj := t.gpus[i], t.gpus[j]
	lo, hi := gi, gj
	if lo > hi {
		lo, hi = hi, lo
	}
	for _, l := range t.links {
		if l.A == lo && l.B == hi {
			if l.Type == LinkNVLink2 {
				return "NV2"
			}
			if l.Type == LinkNVLink {
				return "NV1"
			}
		}
	}
	if !t.SameMachine(i, j) {
		return "SYS"
	}
	if !t.SameSocket(i, j) {
		return "SYS"
	}
	if t.P2P(i, j) {
		return "PIX"
	}
	return "PHB"
}

// RenderTree emits an indented textual rendering of the topology hierarchy
// with link annotations, for the topoviz tool and documentation.
func (t *Topology) RenderTree() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (routing penalty %.1f)\n", t.Name, t.RoutingPenalty)
	type adj struct {
		to   int
		link Link
	}
	children := map[int][]adj{}
	isChild := make([]bool, len(t.nodes))
	for _, l := range t.links {
		na, nb := t.nodes[l.A], t.nodes[l.B]
		switch {
		case na.Level < nb.Level:
			children[l.A] = append(children[l.A], adj{to: l.B, link: l})
			isChild[l.B] = true
		case nb.Level < na.Level:
			children[l.B] = append(children[l.B], adj{to: l.A, link: l})
			isChild[l.A] = true
		}
	}
	var walk func(id, depth int)
	walk = func(id, depth int) {
		fmt.Fprintf(&sb, "%s%s\n", strings.Repeat("  ", depth), t.nodes[id].Name)
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].to < kids[j].to })
		for _, k := range kids {
			fmt.Fprintf(&sb, "%s[%s %.0fGB/s w=%.0f]\n",
				strings.Repeat("  ", depth+1), k.link.Type, k.link.Bandwidth, k.link.Weight)
			walk(k.to, depth+1)
		}
	}
	for _, n := range t.nodes {
		if !isChild[n.ID] && n.Level != LevelGPU {
			walk(n.ID, 0)
		}
	}
	// Peer NVLink edges are not part of the tree; list them separately.
	var peers []Link
	for _, l := range t.links {
		if t.nodes[l.A].Level == LevelGPU && t.nodes[l.B].Level == LevelGPU {
			peers = append(peers, l)
		}
	}
	if len(peers) > 0 {
		sb.WriteString("peer links:\n")
		for _, l := range peers {
			fmt.Fprintf(&sb, "  %s -- %s [%s %.0fGB/s w=%.0f]\n",
				t.nodes[l.A].Name, t.nodes[l.B].Name, l.Type, l.Bandwidth, l.Weight)
		}
	}
	return sb.String()
}

func nonEmptyLines(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out
}
