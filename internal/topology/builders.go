package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// LevelWeights parameterizes the qualitative distance weights so the
// ablation experiments (and sweep topology specs) can vary them. Zero
// values fall back to the defaults of Figure 7. The JSON form is used by
// grid spec files (see internal/sweep and docs/sweeps.md).
type LevelWeights struct {
	GPUPeer float64 `json:"gpu_peer,omitempty"` // direct GPU-GPU edge
	GPULink float64 `json:"gpu_link,omitempty"` // GPU to switch/socket
	Switch  float64 `json:"switch,omitempty"`   // switch to socket
	Socket  float64 `json:"socket,omitempty"`   // socket to machine
	Machine float64 `json:"machine,omitempty"`  // machine to network
}

// DefaultWeights returns the weights of Figure 7.
func DefaultWeights() LevelWeights {
	return LevelWeights{
		GPUPeer: WeightGPUPeer,
		GPULink: WeightGPULink,
		Switch:  WeightSwitch,
		Socket:  WeightSocket,
		Machine: WeightMachine,
	}
}

func (w LevelWeights) orDefault() LevelWeights {
	d := DefaultWeights()
	if w.GPUPeer == 0 {
		w.GPUPeer = d.GPUPeer
	}
	if w.GPULink == 0 {
		w.GPULink = d.GPULink
	}
	if w.Switch == 0 {
		w.Switch = d.Switch
	}
	if w.Socket == 0 {
		w.Socket = d.Socket
	}
	if w.Machine == 0 {
		w.Machine = d.Machine
	}
	return w
}

// Power8Minsky builds the IBM Power8 S822LC "Minsky" machine of §3.1 and
// Figure 1: two sockets, two P100 GPUs per socket, dual-lane NVLink
// (40 GB/s) both between the GPUs of a socket and from each GPU to its
// socket, and an X-Bus between the sockets.
func Power8Minsky() *Topology { return Power8MinskyWeights(DefaultWeights()) }

// Power8MinskyWeights is Power8Minsky with custom level weights.
func Power8MinskyWeights(w LevelWeights) *Topology { return mustMachine(KindMinsky, w) }

// PCIeBox builds the PCIe-Gen3 comparison machine of §3.2: the same
// two-socket, four-GPU layout but with K80-class GPUs attached through
// PCIe switches instead of NVLink. Its routing penalty is lower (2.5 vs
// the NVLink machine's 3.5) because transfers were already staged over
// PCIe, matching the smaller pack-vs-spread gap measured on that machine.
func PCIeBox() *Topology { return mustMachine(KindPCIeBox, DefaultWeights()) }

// DGX1 builds the NVIDIA DGX-1 of Figure 1: eight P100s in a hybrid
// cube-mesh of single-lane NVLinks (the 12 cube edges plus the diagonals of
// two faces), each GPU also hanging off a PCIe switch (two GPUs per switch,
// two switches per socket).
func DGX1() *Topology { return mustMachine(KindDGX1, DefaultWeights()) }

func mustMachine(kind MachineKind, w LevelWeights) *Topology {
	t, err := Machine(kind, w)
	if err != nil {
		panic(err)
	}
	return t
}

// routingPenalty is the staging penalty of a machine class, chosen here
// and nowhere else: systems with NVLink stage routed transfers through
// host memory (3.5), while all-PCIe systems already paid the staging cost
// (2.5, §3.2). A built and a discovered version of the same machine, and a
// cluster and its machines, therefore score allocations alike.
func routingPenalty(nvlink bool) float64 {
	if nvlink {
		return 3.5
	}
	return 2.5
}

// assemble builds a topology of n machines, machine m added by
// stamp(b, m, netID): under one network root, or — standalone — a single
// machine with no network vertex (netID -1).
func assemble(name string, nvlink bool, n int, standalone bool, stamp func(b *Builder, m, netID int)) *Topology {
	b := NewBuilder(name).SetRoutingPenalty(routingPenalty(nvlink))
	netID := -1
	if !standalone {
		netID = b.AddNode(LevelNetwork, "Net", -1, -1, -1)
	}
	for m := 0; m < n; m++ {
		stamp(b, m, netID)
	}
	return b.Build()
}

// addMachineVertex appends machine m's vertex, linked to the network
// vertex netID when >= 0.
func addMachineVertex(b *Builder, m int, w LevelWeights, netID int) int {
	mID := b.AddNode(LevelMachine, fmt.Sprintf("M%d", m), m, -1, -1)
	if netID >= 0 {
		b.AddLink(netID, mID, LinkNetwork, BandwidthNetwork, w.Machine)
	}
	return mID
}

// dgx1NVLinks are the DGX-1's hybrid cube-mesh NVLink edges.
var dgx1NVLinks = [...][2]int{
	// Top face (socket 0) ring and bottom face (socket 1) ring.
	{0, 1}, {1, 3}, {3, 2}, {2, 0},
	{4, 5}, {5, 7}, {7, 6}, {6, 4},
	// Vertical cube edges.
	{0, 4}, {1, 5}, {2, 6}, {3, 7},
	// Diagonals of two faces.
	{0, 3}, {1, 2}, {4, 7}, {5, 6},
}

// addMachine appends machine m of the given kind to the builder, its
// machine vertex linked to netID when >= 0. failed removes that many GPUs
// (and their links) from the top of the index range — a degraded machine,
// see DegradedMachine; sockets and switches stay even when left empty.
func addMachine(b *Builder, m int, kind MachineKind, w LevelWeights, netID, failed int) {
	mID := addMachineVertex(b, m, w, netID)
	keep := kindTable[kind].gpus - failed
	node := func(level Level, label string, i, socket, index int) int {
		return b.AddNode(level, fmt.Sprintf("M%d/%s%d", m, label, i), m, socket, index)
	}
	var sw [4]int // DGX-1 only
	for s := 0; s < 2; s++ {
		sID := node(LevelSocket, "S", s, s, -1)
		b.AddLink(mID, sID, LinkXBus, BandwidthXBus, w.Socket)
		switch kind {
		case KindMinsky:
			// Dual-lane NVLink between the socket's two GPUs and from
			// each of them to the CPU.
			gpus := make([]int, 0, 2)
			for idx := 2 * s; idx < min(2*s+2, keep); idx++ {
				gpus = append(gpus, node(LevelGPU, "GPU", idx, s, idx))
			}
			if len(gpus) == 2 {
				b.AddLink(gpus[0], gpus[1], LinkNVLink2, BandwidthNVLink2, w.GPUPeer)
			}
			for _, g := range gpus {
				b.AddLink(g, sID, LinkNVLink2, BandwidthNVLink2, w.GPULink)
			}
		case KindPCIeBox:
			// One PCIe switch per socket, two GPUs behind it.
			swID := node(LevelSwitch, "SW", s, s, -1)
			b.AddLink(sID, swID, LinkPCIe, BandwidthPCIe, w.Switch)
			for idx := 2 * s; idx < min(2*s+2, keep); idx++ {
				g := node(LevelGPU, "GPU", idx, s, idx)
				b.AddLink(g, swID, LinkPCIe, BandwidthPCIe, w.GPULink)
			}
		case KindDGX1:
			// Two PCIe switches per socket; the GPUs follow both sockets.
			for swIdx := 2 * s; swIdx < 2*s+2; swIdx++ {
				sw[swIdx] = node(LevelSwitch, "SW", swIdx, s, -1)
				b.AddLink(sID, sw[swIdx], LinkPCIe, BandwidthPCIe, w.Switch)
			}
		}
	}
	if kind == KindDGX1 {
		var gpu [8]int
		for i := 0; i < keep; i++ {
			gpu[i] = node(LevelGPU, "GPU", i, i/4, i)
			b.AddLink(gpu[i], sw[i/2], LinkPCIe, BandwidthPCIe, w.GPULink)
		}
		for _, p := range dgx1NVLinks {
			if p[0] < keep && p[1] < keep {
				b.AddLink(gpu[p[0]], gpu[p[1]], LinkNVLink, BandwidthNVLink, w.GPUPeer)
			}
		}
	}
}

// MachineKind selects the per-machine layout for cluster topologies.
type MachineKind int

// Supported machine layouts.
const (
	KindMinsky MachineKind = iota
	KindDGX1
	KindPCIeBox
)

// kindTable holds what the package knows of each kind besides its layout
// (addMachine): the canonical builder name, the standalone machine's
// topology name, the suffix of a homogeneous cluster's name, the healthy
// GPU count, and whether the GPUs attach over NVLink (see routingPenalty).
var kindTable = [...]struct {
	name, title, cluster string
	gpus                 int
	nvlink               bool
}{
	KindMinsky:  {"minsky", "Power8-Minsky", "Minsky", 4, true},
	KindDGX1:    {"dgx1", "DGX-1", "DGX1", 8, true},
	KindPCIeBox: {"pcie", "Power8-PCIe", "PCIe", 4, false},
}

func (k MachineKind) valid() bool { return k >= 0 && int(k) < len(kindTable) }

// String returns the canonical builder name ("minsky", "dgx1", "pcie")
// accepted by ParseMachineKind and by sweep topology specs.
func (k MachineKind) String() string {
	if !k.valid() {
		return fmt.Sprintf("MachineKind(%d)", int(k))
	}
	return kindTable[k].name
}

// ParseMachineKind maps a builder name to its MachineKind. It accepts the
// canonical names returned by String plus a few common aliases.
func ParseMachineKind(name string) (MachineKind, error) {
	switch name {
	case "minsky", "power8", "power8-minsky":
		return KindMinsky, nil
	case "dgx1", "dgx-1":
		return KindDGX1, nil
	case "pcie", "pciebox", "power8-pcie":
		return KindPCIeBox, nil
	default:
		return 0, fmt.Errorf("topology: unknown builder %q (use one of %v)", name, MachineKindNames())
	}
}

// MachineKindNames lists the canonical builder names, in declaration order.
func MachineKindNames() []string {
	return []string{KindMinsky.String(), KindDGX1.String(), KindPCIeBox.String()}
}

// Machine builds a single standalone machine of the given kind (no network
// root) with custom level weights — the Table 1 / prototype substrate.
func Machine(kind MachineKind, w LevelWeights) (*Topology, error) {
	return standaloneMachine(kind, 0, w)
}

// DegradedMachine builds a standalone machine of the given kind with
// failedGPUs GPUs removed from the top of the index range — the
// intra-kind asymmetry of a partially failed node (e.g. a 3-GPU Minsky).
// Production fleets carry such machines for weeks between repair windows,
// and they break every "by symmetry" shortcut an allocator is tempted to
// take: the extremal-allocation search treats a degraded machine as its
// own machine shape (see seedCandidates).
//
//lint:ignore deadcode test helper: topology and schedcore tests build degraded machines through it
func DegradedMachine(kind MachineKind, failedGPUs int) (*Topology, error) {
	return standaloneMachine(kind, failedGPUs, DefaultWeights())
}

func standaloneMachine(kind MachineKind, failed int, w LevelWeights) (*Topology, error) {
	if err := validateFailed(kind, failed); err != nil {
		return nil, err
	}
	name := kindTable[kind].title
	if failed > 0 {
		name = fmt.Sprintf("%s-%dg", name, failed)
	}
	w = w.orDefault()
	return assemble(name, kindTable[kind].nvlink, 1, true, func(b *Builder, m, netID int) {
		addMachine(b, m, kind, w, netID, failed)
	}), nil
}

// validateFailed checks a machine kind and a degraded-GPU count against
// the kind's size: at least one GPU must survive.
func validateFailed(kind MachineKind, failed int) error {
	if !kind.valid() {
		return fmt.Errorf("topology: unknown machine kind %v", kind)
	}
	if gpus := kindTable[kind].gpus; failed < 0 || failed >= gpus {
		return fmt.Errorf("topology: %s has %d GPUs; failed count %d must be in [0, %d]",
			kind, gpus, failed, gpus-1)
	}
	return nil
}

// Cluster builds a homogeneous cluster of n machines joined by a network
// vertex. The simulated large-scale scenarios of §5.5 use Minsky machines
// ("all simulated machines are homogeneous and follow the hardware topology
// described in Section 3.1"); DGX-1 and PCIe clusters are provided for
// completeness.
func Cluster(n int, kind MachineKind) *Topology {
	return ClusterWeights(n, kind, DefaultWeights())
}

// ClusterWeights is Cluster with custom level weights.
func ClusterWeights(n int, kind MachineKind, w LevelWeights) *Topology {
	w = w.orDefault()
	name := fmt.Sprintf("Cluster-%dx%s", n, kindTable[kind].cluster)
	return assemble(name, kindTable[kind].nvlink, n, false, func(b *Builder, m, netID int) {
		addMachine(b, m, kind, w, netID, 0)
	})
}

// MachineSpec is one run of identical machines inside a heterogeneous
// cluster: Count machines of the given Kind, each with Failed GPUs
// removed (0 = healthy; see DegradedMachine).
type MachineSpec struct {
	Kind   MachineKind
	Count  int
	Failed int
}

// Label renders the spec's kind in the mix syntax: the builder name,
// suffixed "-<n>g" for degraded machines ("minsky-1g" = 3-GPU Minsky).
func (s MachineSpec) Label() string {
	if s.Failed > 0 {
		return fmt.Sprintf("%s-%dg", s.Kind, s.Failed)
	}
	return s.Kind.String()
}

// MixString renders a machine mix in the canonical
// "minsky:2+minsky-1g:1+dgx1:1" form accepted by ParseMix and used in
// sweep cell keys.
func MixString(specs []MachineSpec) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		parts[i] = fmt.Sprintf("%s:%d", s.Label(), s.Count)
	}
	return strings.Join(parts, "+")
}

// ParseMixKind parses a mix kind name: a builder name accepted by
// ParseMachineKind, optionally suffixed "-<n>g" marking n failed GPUs
// ("minsky-1g" is a Minsky with one failed GPU, i.e. 3 healthy ones).
// The failed count must leave at least one GPU.
func ParseMixKind(name string) (MachineKind, int, error) {
	base, failed := name, 0
	if i := strings.LastIndex(name, "-"); i > 0 && strings.HasSuffix(name, "g") {
		if n, err := strconv.Atoi(name[i+1 : len(name)-1]); err == nil {
			base, failed = name[:i], n
		}
	}
	kind, err := ParseMachineKind(base)
	if err != nil {
		// The unsuffixed name may itself be a builder alias containing a
		// dash (e.g. "power8-minsky", "dgx-1"); retry verbatim.
		if k2, err2 := ParseMachineKind(name); err2 == nil {
			return k2, 0, nil
		}
		return 0, 0, err
	}
	if err := validateFailed(kind, failed); err != nil {
		return 0, 0, err
	}
	return kind, failed, nil
}

// ParseMix parses a "minsky:2+minsky-1g:1+dgx1:1" mix description into
// machine specs. Every entry needs a registered builder name (optionally
// degraded with a "-<n>g" suffix) and a count >= 1.
func ParseMix(s string) ([]MachineSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("topology: empty machine mix")
	}
	var specs []MachineSpec
	for _, part := range strings.Split(s, "+") {
		name, countStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("topology: mix entry %q is not builder:count", part)
		}
		kind, failed, err := ParseMixKind(name)
		if err != nil {
			return nil, err
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count < 1 {
			return nil, fmt.Errorf("topology: mix entry %q needs a machine count >= 1", part)
		}
		specs = append(specs, MachineSpec{Kind: kind, Count: count, Failed: failed})
	}
	return specs, nil
}

// HeterogeneousCluster builds a mixed-kind cluster joined by a network
// vertex: the machines of each spec in order, so "minsky:2+dgx1:1" yields
// machines M0,M1 (Minsky) and M2 (DGX-1). Mixed-generation fleets are the
// norm in production datacenters, and BestAllocation is only meaningful
// on them when the extremal search considers every distinct machine shape
// (see extremeAllocation).
//
//lint:ignore deadcode test helper: the tests of topology, cluster, profile, core, schedcore, its differential harness, domains and place cache, and the root package build mixed fleets through it
func HeterogeneousCluster(specs []MachineSpec) (*Topology, error) {
	return HeterogeneousClusterWeights(specs, DefaultWeights())
}

// HeterogeneousClusterWeights is HeterogeneousCluster with custom level
// weights.
func HeterogeneousClusterWeights(specs []MachineSpec, w LevelWeights) (*Topology, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("topology: heterogeneous cluster needs at least one machine spec")
	}
	var machines []MachineSpec // the spec of machine m
	nvlink := false
	for _, s := range specs {
		if err := validateFailed(s.Kind, s.Failed); err != nil {
			return nil, err
		}
		if s.Count < 1 {
			return nil, fmt.Errorf("topology: machine spec %s:%d needs a count >= 1", s.Kind, s.Count)
		}
		nvlink = nvlink || kindTable[s.Kind].nvlink
		for i := 0; i < s.Count; i++ {
			machines = append(machines, s)
		}
	}
	w = w.orDefault()
	return assemble("Cluster-"+MixString(specs), nvlink, len(machines), false, func(b *Builder, m, netID int) {
		addMachine(b, m, machines[m].Kind, w, netID, machines[m].Failed)
	}), nil
}
