package topology

import (
	"math"
	"testing"
)

// TestDegradedMachineBuilders checks the standalone degraded builders:
// GPU counts, surviving interconnect structure, and the healthy-machine
// passthrough.
func TestDegradedMachineBuilders(t *testing.T) {
	cases := []struct {
		kind     MachineKind
		failed   int
		wantGPUs int
	}{
		{KindMinsky, 1, 3},
		{KindMinsky, 2, 2},
		{KindMinsky, 3, 1},
		{KindDGX1, 5, 3},
		{KindPCIeBox, 1, 3},
	}
	for _, tc := range cases {
		topo, err := DegradedMachine(tc.kind, tc.failed)
		if err != nil {
			t.Fatalf("%s-%dg: %v", tc.kind, tc.failed, err)
		}
		if topo.NumGPUs() != tc.wantGPUs {
			t.Fatalf("%s-%dg: %d GPUs, want %d", tc.kind, tc.failed, topo.NumGPUs(), tc.wantGPUs)
		}
		if topo.NumMachines() != 1 {
			t.Fatalf("%s-%dg: %d machines", tc.kind, tc.failed, topo.NumMachines())
		}
		// Every surviving pair must still be reachable.
		for a := 0; a < topo.NumGPUs(); a++ {
			for b := a + 1; b < topo.NumGPUs(); b++ {
				if math.IsInf(topo.Distance(a, b), 1) {
					t.Fatalf("%s-%dg: GPUs %d,%d disconnected", tc.kind, tc.failed, a, b)
				}
			}
		}
	}
	// A 3-GPU Minsky keeps the socket-0 NVLink pair at distance 1 and the
	// lone socket-1 GPU across the X-Bus.
	m3, err := DegradedMachine(KindMinsky, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := m3.Distance(0, 1); d != WeightGPUPeer { // direct NVLink edge
		t.Fatalf("minsky-1g intra-socket distance = %g, want %g", d, WeightGPUPeer)
	}
	if !m3.P2P(0, 1) {
		t.Fatal("minsky-1g socket pair lost P2P")
	}
	if m3.P2P(0, 2) {
		t.Fatal("minsky-1g cross-socket pair must route through hosts")
	}

	// Healthy passthrough: failed=0 is the ordinary machine.
	h, err := DegradedMachine(KindMinsky, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumGPUs() != 4 {
		t.Fatalf("failed=0 built %d GPUs", h.NumGPUs())
	}

	// Error paths: no GPUs left, negative count.
	if _, err := DegradedMachine(KindMinsky, 4); err == nil {
		t.Fatal("failed=4 on a 4-GPU machine accepted")
	}
	if _, err := DegradedMachine(KindDGX1, 8); err == nil {
		t.Fatal("failed=8 on an 8-GPU machine accepted")
	}
	if _, err := DegradedMachine(KindPCIeBox, -1); err == nil {
		t.Fatal("negative failed count accepted")
	}
}

// TestParseMixKindDegraded covers the "-<n>g" suffix syntax and its
// interaction with dash-bearing builder aliases.
func TestParseMixKindDegraded(t *testing.T) {
	cases := []struct {
		name   string
		kind   MachineKind
		failed int
	}{
		{"minsky", KindMinsky, 0},
		{"minsky-1g", KindMinsky, 1},
		{"minsky-3g", KindMinsky, 3},
		{"dgx1-5g", KindDGX1, 5},
		{"pcie-2g", KindPCIeBox, 2},
		{"power8-minsky", KindMinsky, 0}, // dash alias, no suffix
		{"dgx-1", KindDGX1, 0},           // dash alias ending in a digit
	}
	for _, tc := range cases {
		kind, failed, err := ParseMixKind(tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if kind != tc.kind || failed != tc.failed {
			t.Fatalf("%s: got (%v, %d), want (%v, %d)", tc.name, kind, failed, tc.kind, tc.failed)
		}
	}
	for _, bad := range []string{"minsky-4g", "dgx1-8g", "nosuch", "nosuch-1g"} {
		if _, _, err := ParseMixKind(bad); err == nil {
			t.Fatalf("%s accepted", bad)
		}
	}
}

// TestMixRoundTripDegraded pins ParseMix <-> MixString symmetry for
// degraded entries, and that HeterogeneousCluster stamps the degraded
// machines with the right sizes.
func TestMixRoundTripDegraded(t *testing.T) {
	const mix = "minsky:2+minsky-1g:1+dgx1:1"
	specs, err := ParseMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	if got := MixString(specs); got != mix {
		t.Fatalf("round trip %q -> %q", mix, got)
	}
	topo, err := HeterogeneousCluster(specs)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumMachines() != 4 {
		t.Fatalf("machines = %d", topo.NumMachines())
	}
	wantSizes := []int{4, 4, 3, 8}
	for m, want := range wantSizes {
		if got := len(topo.GPUsOfMachine(m)); got != want {
			t.Fatalf("machine %d has %d GPUs, want %d", m, got, want)
		}
	}
	if topo.NumGPUs() != 19 {
		t.Fatalf("total GPUs = %d, want 19", topo.NumGPUs())
	}
}

// TestExtremeAllocationSeedsDegradedShape is the allocator-coverage
// regression for degraded machines: on a large cluster (shape-based seed
// limiting active: >2 machines, >16 GPUs) whose best dense allocation
// hides inside the one degraded machine, the extremal search must treat
// the degraded machine as its own shape and seed it — a
// first-two-machines-of-each-healthy-kind heuristic would never reach
// the NVLink triangle of a 3-GPU DGX-1.
func TestExtremeAllocationSeedsDegradedShape(t *testing.T) {
	specs, err := ParseMix("minsky:4+dgx1-5g:1")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := HeterogeneousCluster(specs)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 19 || topo.NumMachines() != 5 {
		t.Fatalf("unexpected cluster: %d GPUs, %d machines", topo.NumGPUs(), topo.NumMachines())
	}
	for _, g := range []int{2, 3} {
		got := topo.PairwiseDistance(topo.BestAllocation(g))
		want := math.Inf(1)
		enumerate(topo.NumGPUs(), g, func(set []int) {
			want = min(want, topo.PairwiseDistance(set))
		})
		if got != want {
			t.Fatalf("BestAllocation(%d) cost %g, brute force %g — degraded shape not seeded", g, got, want)
		}
	}
	// The 3-GPU optimum is the degraded DGX-1's all-NVLink triangle: all
	// three pairs are direct weight-1 edges.
	best3 := topo.BestAllocation(3)
	ms := map[int]bool{}
	for _, pos := range best3 {
		ms[topo.GPU(pos).Machine] = true
	}
	if len(ms) != 1 || !ms[4] {
		t.Fatalf("best 3-GPU allocation %v not inside the degraded DGX-1 (machine 4)", best3)
	}
	if got := topo.PairwiseDistance(best3); got != 3*WeightGPUPeer {
		t.Fatalf("best 3-GPU cost = %g, want the NVLink triangle %g", got, 3*WeightGPUPeer)
	}
}

// TestStateHandlesDegradedFragmentation checks Eq. 5 bookkeeping on a
// degraded machine: a 1-GPU socket contributes integer fractions without
// breaking the incremental fragmentation sum.
func TestStateHandlesDegradedFragmentation(t *testing.T) {
	topo, err := DegradedMachine(KindMinsky, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.GPUsOfSocket(0, 1)); got != 1 {
		t.Fatalf("socket 1 has %d GPUs, want 1", got)
	}
	if got := len(topo.Sockets(0)); got != 2 {
		t.Fatalf("sockets = %d, want 2", got)
	}
}
