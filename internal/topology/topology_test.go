package topology

import (
	"math"
	"testing"
)

func TestMinskyStructure(t *testing.T) {
	topo := Power8Minsky()
	if topo.NumGPUs() != 4 {
		t.Fatalf("GPUs = %d", topo.NumGPUs())
	}
	if topo.NumMachines() != 1 {
		t.Fatalf("machines = %d", topo.NumMachines())
	}
	// 1 machine + 2 sockets + 4 GPUs.
	if len(topo.nodes) != 7 {
		t.Fatalf("nodes = %d", len(topo.nodes))
	}
	if got := topo.Sockets(0); len(got) != 2 {
		t.Fatalf("sockets = %v", got)
	}
	if got := topo.GPUsOfSocket(0, 0); len(got) != 2 {
		t.Fatalf("socket 0 GPUs = %v", got)
	}
}

func TestMinskyDistances(t *testing.T) {
	topo := Power8Minsky()
	// Same socket: direct NVLink edge, weight 1.
	if d := topo.Distance(0, 1); d != 1 {
		t.Fatalf("intra-socket distance = %v", d)
	}
	if d := topo.Distance(2, 3); d != 1 {
		t.Fatalf("intra-socket distance (socket 1) = %v", d)
	}
	// Cross socket: GPU -> socket (1) -> machine (20) -> socket (20) ->
	// GPU (1) = 42.
	if d := topo.Distance(0, 2); d != 42 {
		t.Fatalf("cross-socket distance = %v", d)
	}
	// Symmetry and zero diagonal.
	for i := 0; i < 4; i++ {
		if topo.Distance(i, i) != 0 {
			t.Fatalf("self distance nonzero at %d", i)
		}
		for j := 0; j < 4; j++ {
			if topo.Distance(i, j) != topo.Distance(j, i) {
				t.Fatalf("asymmetric distance %d-%d", i, j)
			}
		}
	}
}

func TestMinskyP2PAndBandwidth(t *testing.T) {
	topo := Power8Minsky()
	if !topo.P2P(0, 1) || !topo.P2P(2, 3) {
		t.Fatal("intra-socket pairs must be P2P (direct NVLink)")
	}
	if topo.P2P(0, 2) || topo.P2P(1, 3) {
		t.Fatal("cross-socket pairs must not be P2P")
	}
	if topo.P2P(1, 1) {
		t.Fatal("self pair cannot be P2P")
	}
	if bw := topo.PathBandwidth(0, 1); bw != BandwidthNVLink2 {
		t.Fatalf("intra-socket bandwidth = %v", bw)
	}
	if bw := topo.PathBandwidth(0, 2); bw != BandwidthXBus {
		t.Fatalf("cross-socket bottleneck = %v", bw)
	}
	// Effective bandwidth: P2P keeps nominal; routed takes the penalty.
	if e := topo.EffectiveBandwidth(0, 1); e != BandwidthNVLink2 {
		t.Fatalf("P2P effective bandwidth = %v", e)
	}
	want := BandwidthXBus / topo.RoutingPenalty
	if e := topo.EffectiveBandwidth(0, 2); math.Abs(e-want) > 1e-9 {
		t.Fatalf("routed effective bandwidth = %v, want %v", e, want)
	}
}

func TestMinskySameSocketSameMachine(t *testing.T) {
	topo := Power8Minsky()
	if !topo.SameSocket(0, 1) || topo.SameSocket(0, 2) {
		t.Fatal("SameSocket wrong")
	}
	if !topo.SameMachine(0, 3) {
		t.Fatal("SameMachine wrong")
	}
}

func TestDGX1Structure(t *testing.T) {
	topo := DGX1()
	if topo.NumGPUs() != 8 {
		t.Fatalf("GPUs = %d", topo.NumGPUs())
	}
	// Every GPU has exactly 4 NVLink peers (hybrid cube mesh).
	for i := 0; i < 8; i++ {
		peers := 0
		for _, l := range topo.links {
			if l.Type != LinkNVLink {
				continue
			}
			na, nb := topo.nodes[l.A], topo.nodes[l.B]
			if na.Level == LevelGPU && nb.Level == LevelGPU &&
				(na.Index == i || nb.Index == i) {
				peers++
			}
		}
		if peers != 4 {
			t.Fatalf("GPU%d has %d NVLink peers, want 4", i, peers)
		}
	}
	// NVLink-adjacent GPUs are at distance 1 and P2P.
	if d := topo.Distance(0, 1); d != 1 {
		t.Fatalf("NVLink pair distance = %v", d)
	}
	if !topo.P2P(0, 1) {
		t.Fatal("NVLink pair not P2P")
	}
	// GPU0 and GPU5 share no NVLink; their path crosses PCIe/QPI.
	if topo.P2P(0, 5) {
		t.Fatal("GPU0-GPU5 should not be P2P on DGX-1")
	}
	// GPUs under the same PCIe switch without NVLink would be P2P via the
	// switch; on the P100 DGX-1 all same-switch pairs also have NVLink.
	if d := topo.Distance(0, 5); d <= 1 {
		t.Fatalf("distant pair distance = %v", d)
	}
}

func TestPCIeBoxStructure(t *testing.T) {
	topo := PCIeBox()
	if topo.NumGPUs() != 4 {
		t.Fatalf("GPUs = %d", topo.NumGPUs())
	}
	// Same-switch pairs communicate P2P over the switch.
	if !topo.P2P(0, 1) {
		t.Fatal("same-switch PCIe pair should be P2P")
	}
	if topo.P2P(0, 2) {
		t.Fatal("cross-socket PCIe pair should not be P2P")
	}
	if bw := topo.PathBandwidth(0, 1); bw != BandwidthPCIe {
		t.Fatalf("PCIe switch bandwidth = %v", bw)
	}
	// Same-switch distance: GPU -> switch -> GPU = 2.
	if d := topo.Distance(0, 1); d != 2 {
		t.Fatalf("same-switch distance = %v", d)
	}
}

func TestClusterTopology(t *testing.T) {
	topo := Cluster(3, KindMinsky)
	if topo.NumGPUs() != 12 {
		t.Fatalf("GPUs = %d", topo.NumGPUs())
	}
	if topo.NumMachines() != 3 {
		t.Fatalf("machines = %d", topo.NumMachines())
	}
	// Cross-machine pairs are connected through the network and never P2P.
	if topo.P2P(0, 4) {
		t.Fatal("cross-machine pair reported P2P")
	}
	if topo.SameMachine(0, 4) {
		t.Fatal("GPUs 0 and 4 are on different machines")
	}
	// Cross-machine distance must exceed any intra-machine distance.
	if topo.Distance(0, 4) <= topo.Distance(0, 2) {
		t.Fatalf("cross-machine %v <= cross-socket %v", topo.Distance(0, 4), topo.Distance(0, 2))
	}
	// GPUsOfMachine partitioning.
	total := 0
	for m := 0; m < 3; m++ {
		total += len(topo.GPUsOfMachine(m))
	}
	if total != 12 {
		t.Fatalf("machine partition covers %d GPUs", total)
	}
}

func TestClusterKinds(t *testing.T) {
	if got := Cluster(2, KindDGX1).NumGPUs(); got != 16 {
		t.Fatalf("DGX1 cluster GPUs = %d", got)
	}
	if got := Cluster(2, KindPCIeBox).NumGPUs(); got != 8 {
		t.Fatalf("PCIe cluster GPUs = %d", got)
	}
}

func TestMinPairDistance(t *testing.T) {
	topo := Power8Minsky()
	if min := topo.MinPairDistance(); min != 1 {
		t.Fatalf("min pair distance = %v", min)
	}
}

func TestBestWorstAllocationMinsky(t *testing.T) {
	topo := Power8Minsky()
	best2 := topo.BestAllocation(2)
	if !topo.SameSocket(best2[0], best2[1]) {
		t.Fatalf("best 2-GPU allocation %v not same socket", best2)
	}
	if topo.BestCommCost(2) != 1 {
		t.Fatalf("comm cost = %v", topo.BestCommCost(2))
	}
	if topo.BestCommCost(1) != 0 {
		t.Fatal("single GPU comm cost must be 0")
	}
	// Requesting more GPUs than exist clamps.
	if got := topo.BestAllocation(10); len(got) != 4 {
		t.Fatalf("clamped allocation = %v", got)
	}
	if topo.BestAllocation(0) != nil {
		t.Fatal("zero GPUs should yield nil")
	}
}

// TestBestAllocationMatchesBruteForce verifies the greedy extremal search
// against exhaustive enumeration on Minsky and DGX-1.
func TestBestAllocationMatchesBruteForce(t *testing.T) {
	for _, topo := range []*Topology{Power8Minsky(), DGX1()} {
		n := topo.NumGPUs()
		for g := 2; g <= 4; g++ {
			bestBrute := math.Inf(1)
			enumerate(n, g, func(set []int) {
				bestBrute = min(bestBrute, topo.PairwiseDistance(set))
			})
			if got := topo.BestCommCost(g); math.Abs(got-bestBrute) > 1e-9 {
				t.Fatalf("%s best(%d) = %v, brute force %v", topo.Name, g, got, bestBrute)
			}
		}
	}
}

func enumerate(n, k int, f func([]int)) {
	set := make([]int, k)
	var rec func(start, idx int)
	rec = func(start, idx int) {
		if idx == k {
			f(set)
			return
		}
		for v := start; v < n; v++ {
			set[idx] = v
			rec(v+1, idx+1)
		}
	}
	rec(0, 0)
}

func TestHeterogeneousClusterStructure(t *testing.T) {
	topo, err := HeterogeneousCluster([]MachineSpec{
		{Kind: KindMinsky, Count: 2},
		{Kind: KindDGX1, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 2*4+8 {
		t.Fatalf("GPUs = %d, want 16", topo.NumGPUs())
	}
	if topo.NumMachines() != 3 {
		t.Fatalf("machines = %d, want 3", topo.NumMachines())
	}
	if topo.Name != "Cluster-minsky:2+dgx1:1" {
		t.Fatalf("name = %q", topo.Name)
	}
	// Machines appear in spec order: M0,M1 Minsky (4 GPUs), M2 DGX-1 (8).
	if got := len(topo.GPUsOfMachine(0)); got != 4 {
		t.Fatalf("machine 0 has %d GPUs, want 4", got)
	}
	if got := len(topo.GPUsOfMachine(2)); got != 8 {
		t.Fatalf("machine 2 has %d GPUs, want 8", got)
	}
	// Cross-machine pairs route over the network, never P2P.
	if topo.P2P(0, 8) || topo.SameMachine(0, 8) {
		t.Fatal("minsky GPU 0 and dgx1 GPU 8 must be on different machines, not P2P")
	}
	if topo.Distance(0, 8) <= topo.Distance(0, 2) {
		t.Fatalf("cross-machine %v <= cross-socket %v", topo.Distance(0, 8), topo.Distance(0, 2))
	}
	// NVLink machines present: the mixed cluster stages routed transfers
	// through host memory like its NVLink members.
	if topo.RoutingPenalty != 3.5 {
		t.Fatalf("routing penalty = %v, want 3.5", topo.RoutingPenalty)
	}
	// All-PCIe mixes keep the PCIe penalty.
	pcie, err := HeterogeneousCluster([]MachineSpec{{Kind: KindPCIeBox, Count: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if pcie.RoutingPenalty != 2.5 {
		t.Fatalf("all-PCIe mix penalty = %v, want 2.5", pcie.RoutingPenalty)
	}
}

func TestHeterogeneousClusterErrors(t *testing.T) {
	if _, err := HeterogeneousCluster(nil); err == nil {
		t.Fatal("empty spec list did not error")
	}
	if _, err := HeterogeneousCluster([]MachineSpec{{Kind: KindMinsky, Count: 0}}); err == nil {
		t.Fatal("zero machine count did not error")
	}
	if _, err := HeterogeneousCluster([]MachineSpec{{Kind: MachineKind(99), Count: 1}}); err == nil {
		t.Fatal("unknown machine kind did not error")
	}
}

func TestParseMix(t *testing.T) {
	specs, err := ParseMix("minsky:2+dgx1:1")
	if err != nil {
		t.Fatal(err)
	}
	want := []MachineSpec{{Kind: KindMinsky, Count: 2}, {Kind: KindDGX1, Count: 1}}
	if len(specs) != 2 || specs[0] != want[0] || specs[1] != want[1] {
		t.Fatalf("ParseMix = %v, want %v", specs, want)
	}
	if got := MixString(specs); got != "minsky:2+dgx1:1" {
		t.Fatalf("MixString = %q", got)
	}
	for _, bad := range []string{"", "minsky", "minsky:0", "minsky:x", "tpu:2", "minsky:2+"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) did not error", bad)
		}
	}
}

// TestHeteroAllocationMatchesBruteForce is the regression test for the
// allocation-symmetry bug: extremeAllocation used to seed only from the
// first two machines "by symmetry", but on minsky,minsky,minsky,dgx1 the
// true best 8-GPU allocation is the DGX-1's own eight GPUs — unreachable
// from a Minsky seed, because every greedy set contains its seed. The
// cluster is sized past the seed-limiting threshold (20 GPUs > 16, 4
// machines > 2) so the heuristic path is the one under test.
func TestHeteroAllocationMatchesBruteForce(t *testing.T) {
	topo, err := HeterogeneousCluster([]MachineSpec{
		{Kind: KindMinsky, Count: 3},
		{Kind: KindDGX1, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumGPUs()
	if n != 20 {
		t.Fatalf("GPUs = %d, want 20", n)
	}
	for _, g := range []int{2, 4, 6, 8} {
		bestBrute := math.Inf(1)
		enumerate(n, g, func(set []int) {
			bestBrute = min(bestBrute, topo.PairwiseDistance(set))
		})
		if got := topo.BestCommCost(g); math.Abs(got-bestBrute) > 1e-9 {
			t.Fatalf("best(%d) = %v, brute force %v", g, got, bestBrute)
		}
	}
	// The optimal 8-GPU allocation lives entirely inside the DGX-1
	// (positions 12..19) — the witness the old first-two-machines seeding
	// could never produce.
	for _, pos := range topo.BestAllocation(8) {
		if pos < 12 {
			t.Fatalf("best 8-GPU allocation %v leaks out of the DGX-1", topo.BestAllocation(8))
		}
	}
}

func TestCustomLevelWeightsPreserveOrdering(t *testing.T) {
	for _, w := range []float64{5, 50, 500} {
		topo := Power8MinskyWeights(LevelWeights{Socket: w})
		if topo.Distance(0, 1) >= topo.Distance(0, 2) {
			t.Fatalf("socket weight %v: intra >= cross distance", w)
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder("test")
	a := b.AddNode(LevelMachine, "M0", 0, -1, -1)
	c := b.AddNode(LevelGPU, "G0", 0, 0, 0)
	b.AddLink(a, c, LinkPCIe, BandwidthPCIe, 1)
	topo := b.Build()
	if topo.NumGPUs() != 1 || topo.NumMachines() != 1 {
		t.Fatal("builder produced wrong counts")
	}
	if topo.Name != "test" {
		t.Fatalf("name = %q", topo.Name)
	}
}

func TestLevelAndLinkStrings(t *testing.T) {
	cases := map[string]string{
		LevelNetwork.String(): "Net",
		LevelGPU.String():     "GPU",
		LinkNVLink2.String():  "NVLink2",
		LinkXBus.String():     "X-Bus",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("string %q, want %q", got, want)
		}
	}
	if Level(99).String() == "" || LinkType(99).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

// TestDenseSocketTables holds MachineOf, SocketSize and SocketBit, the
// per-position tables the placement hot path reads, to the node- and
// map-backed definitions: the position's machine, the GPU count of its
// socket, and a bit two GPUs of a machine share exactly when SameSocket
// says so.
func TestDenseSocketTables(t *testing.T) {
	fleet, err := HeterogeneousCluster([]MachineSpec{
		{Kind: KindMinsky, Count: 2}, {Kind: KindDGX1, Count: 1}, {Kind: KindPCIeBox, Count: 1},
		{Kind: KindMinsky, Count: 1, Failed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*Topology{Power8Minsky(), DGX1(), PCIeBox(), fleet} {
		for a := 0; a < topo.NumGPUs(); a++ {
			nd := topo.GPU(a)
			if got := topo.MachineOf(a); got != nd.Machine {
				t.Fatalf("%s: MachineOf(%d) = %d, node says %d", topo.Name, a, got, nd.Machine)
			}
			if got, want := topo.SocketSize(a), len(topo.GPUsOfSocket(nd.Machine, nd.Socket)); got != want {
				t.Fatalf("%s: SocketSize(%d) = %d, socket holds %d GPUs", topo.Name, a, got, want)
			}
			if bit := topo.SocketBit(a); bit == 0 || bit&(bit-1) != 0 {
				t.Fatalf("%s: SocketBit(%d) = %#x, want one bit", topo.Name, a, bit)
			}
			for _, b := range topo.GPUsOfMachine(nd.Machine) {
				if got, want := topo.SocketBit(a) == topo.SocketBit(b), topo.SameSocket(a, b); got != want {
					t.Fatalf("%s: GPUs %d and %d: equal socket bits %v, SameSocket %v", topo.Name, a, b, got, want)
				}
			}
		}
	}
}
