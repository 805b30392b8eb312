package topology

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

const minskyMatrix = `
     GPU0  GPU1  GPU2  GPU3  CPUAffinity
GPU0 X     NV2   SYS   SYS   0-7
GPU1 NV2   X     SYS   SYS   0-7
GPU2 SYS   SYS   X     NV2   8-15
GPU3 SYS   SYS   NV2   X     8-15
`

func TestParseMatrixMinsky(t *testing.T) {
	topo, err := ParseMatrix(minskyMatrix)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 4 {
		t.Fatalf("GPUs = %d", topo.NumGPUs())
	}
	if !topo.SameSocket(0, 1) || topo.SameSocket(0, 2) {
		t.Fatal("socket inference wrong")
	}
	if !topo.P2P(0, 1) {
		t.Fatal("NV2 pair should be P2P")
	}
	if topo.P2P(0, 2) {
		t.Fatal("SYS pair should not be P2P")
	}
	if topo.Distance(0, 1) >= topo.Distance(0, 2) {
		t.Fatal("NV2 distance should beat SYS distance")
	}
}

func TestParseMatrixRoundTripMinsky(t *testing.T) {
	built := Power8Minsky()
	rendered := built.RenderMatrix()
	parsed, err := ParseMatrix(rendered)
	if err != nil {
		t.Fatalf("round trip parse: %v\nmatrix:\n%s", err, rendered)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if built.P2P(i, j) != parsed.P2P(i, j) {
				t.Fatalf("P2P(%d,%d) changed in round trip", i, j)
			}
			if built.SameSocket(i, j) != parsed.SameSocket(i, j) {
				t.Fatalf("SameSocket(%d,%d) changed in round trip", i, j)
			}
		}
	}
}

func TestParseMatrixPIXSwitch(t *testing.T) {
	matrix := `
     GPU0  GPU1  GPU2  GPU3
GPU0 X     PIX   SYS   SYS
GPU1 PIX   X     SYS   SYS
GPU2 SYS   SYS   X     PIX
GPU3 SYS   SYS   PIX   X
`
	topo, err := ParseMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.P2P(0, 1) {
		t.Fatal("PIX pair should be P2P through the switch")
	}
	// PIX distance: GPU -> switch -> GPU = 2.
	if d := topo.Distance(0, 1); d != 2 {
		t.Fatalf("PIX distance = %v", d)
	}
	if topo.P2P(0, 2) {
		t.Fatal("SYS pair should not be P2P")
	}
}

func TestParseMatrixPHB(t *testing.T) {
	matrix := `
     GPU0  GPU1
GPU0 X     PHB
GPU1 PHB   X
`
	topo, err := ParseMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.SameSocket(0, 1) {
		t.Fatal("PHB pair shares a socket")
	}
	if topo.P2P(0, 1) {
		t.Fatal("PHB pair is routed through the host bridge, not P2P")
	}
}

// TestMatrixRoundTripEquivalence is the full discovery-equivalence check:
// rendering a built machine and parsing the result back must reproduce
// the same GPU-to-GPU distances, P2P relations, effective bandwidths and
// routing penalty — otherwise discovered and built versions of the same
// machine would score allocations differently. DGX-1 is the hard case:
// its cube-mesh NVLink joins every GPU transitively (socket structure
// only survives via the CPU-affinity column) and its PCIe switches are
// shadowed by NV1 tokens (ParseMatrix must re-synthesize the switch hop).
func TestMatrixRoundTripEquivalence(t *testing.T) {
	for _, built := range []*Topology{Power8Minsky(), DGX1(), PCIeBox()} {
		parsed, err := ParseMatrix(built.RenderMatrix())
		if err != nil {
			t.Fatalf("%s: round trip parse: %v\nmatrix:\n%s", built.Name, err, built.RenderMatrix())
		}
		if parsed.NumGPUs() != built.NumGPUs() {
			t.Fatalf("%s: GPU count %d -> %d", built.Name, built.NumGPUs(), parsed.NumGPUs())
		}
		if parsed.RoutingPenalty != built.RoutingPenalty {
			t.Fatalf("%s: routing penalty %v -> %v", built.Name, built.RoutingPenalty, parsed.RoutingPenalty)
		}
		n := built.NumGPUs()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if b, p := built.Distance(i, j), parsed.Distance(i, j); b != p {
					t.Fatalf("%s: Distance(%d,%d) %v -> %v", built.Name, i, j, b, p)
				}
				if b, p := built.P2P(i, j), parsed.P2P(i, j); b != p {
					t.Fatalf("%s: P2P(%d,%d) %v -> %v", built.Name, i, j, b, p)
				}
				if b, p := built.EffectiveBandwidth(i, j), parsed.EffectiveBandwidth(i, j); math.Abs(b-p) > 1e-9 {
					t.Fatalf("%s: EffectiveBandwidth(%d,%d) %v -> %v", built.Name, i, j, b, p)
				}
				if b, p := built.SameSocket(i, j), parsed.SameSocket(i, j); b != p {
					t.Fatalf("%s: SameSocket(%d,%d) %v -> %v", built.Name, i, j, b, p)
				}
			}
		}
	}
}

// TestParseMatrixRoutingPenalty pins the discovery-penalty fix: an
// all-PCIe matrix must score like PCIeBox (2.5), not like an NVLink
// machine — ParseMatrix used to hard-code 3.5 for everything.
func TestParseMatrixRoutingPenalty(t *testing.T) {
	pcieMatrix := `
     GPU0  GPU1  GPU2  GPU3
GPU0 X     PIX   SYS   SYS
GPU1 PIX   X     SYS   SYS
GPU2 SYS   SYS   X     PIX
GPU3 SYS   SYS   PIX   X
`
	topo, err := ParseMatrix(pcieMatrix)
	if err != nil {
		t.Fatal(err)
	}
	if want := PCIeBox().RoutingPenalty; topo.RoutingPenalty != want {
		t.Fatalf("all-PCIe discovered penalty = %v, want %v", topo.RoutingPenalty, want)
	}
	nvTopo, err := ParseMatrix(minskyMatrix)
	if err != nil {
		t.Fatal(err)
	}
	if nvTopo.RoutingPenalty != 3.5 {
		t.Fatalf("NVLink discovered penalty = %v, want 3.5", nvTopo.RoutingPenalty)
	}
}

// TestParseMatrixRowCount pins the trailing-row fix: rows beyond the GPU
// header count used to be silently ignored; both directions now fail with
// ErrMatrixRows. A trailing nvidia-smi legend block stays tolerated.
func TestParseMatrixRowCount(t *testing.T) {
	tooMany := `
     GPU0  GPU1
GPU0 X     NV2
GPU1 NV2   X
GPU2 NV2   NV2
`
	if _, err := ParseMatrix(tooMany); !errors.Is(err, ErrMatrixRows) {
		t.Fatalf("trailing row error = %v, want ErrMatrixRows", err)
	}
	tooFew := `
     GPU0  GPU1
GPU0 X     NV2
`
	if _, err := ParseMatrix(tooFew); !errors.Is(err, ErrMatrixRows) {
		t.Fatalf("missing row error = %v, want ErrMatrixRows", err)
	}
	withLegend := `
     GPU0  GPU1
GPU0 X     NV2
GPU1 NV2   X
Legend:
  NV2 = dual NVLink
`
	if _, err := ParseMatrix(withLegend); err != nil {
		t.Fatalf("legend block rejected: %v", err)
	}
	// Real RDMA-equipped machines list NIC rows after the GPU rows.
	withNIC := `
     GPU0  GPU1
GPU0 X     NV2
GPU1 NV2   X
NIC0 SYS   SYS
Legend:
  NV2 = dual NVLink
`
	if _, err := ParseMatrix(withNIC); err != nil {
		t.Fatalf("NIC row rejected: %v", err)
	}
}

func TestMatrixCluster(t *testing.T) {
	topo, err := MatrixCluster(minskyMatrix, 3)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 12 || topo.NumMachines() != 3 {
		t.Fatalf("matrix cluster: %d GPUs on %d machines", topo.NumGPUs(), topo.NumMachines())
	}
	// Each stamped machine reproduces the single-machine distances.
	single, err := ParseMatrix(minskyMatrix)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		gpus := topo.GPUsOfMachine(m)
		if len(gpus) != 4 {
			t.Fatalf("machine %d has %d GPUs", m, len(gpus))
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if got, want := topo.Distance(gpus[i], gpus[j]), single.Distance(i, j); got != want {
					t.Fatalf("machine %d Distance(%d,%d) = %v, single machine %v", m, i, j, got, want)
				}
			}
		}
	}
	// Cross-machine pairs route over the network.
	if topo.P2P(0, 4) {
		t.Fatal("cross-machine pair reported P2P")
	}
	if topo.Distance(0, 4) <= topo.Distance(0, 2) {
		t.Fatalf("cross-machine %v <= cross-socket %v", topo.Distance(0, 4), topo.Distance(0, 2))
	}
	// The inferred penalty carries over from the matrix.
	if topo.RoutingPenalty != 3.5 {
		t.Fatalf("cluster penalty = %v", topo.RoutingPenalty)
	}
	if _, err := MatrixCluster(minskyMatrix, 0); err == nil {
		t.Fatal("zero machines did not error")
	}
	if _, err := MatrixCluster("garbage", 2); err == nil {
		t.Fatal("bad matrix did not error")
	}
}

func TestParseMatrixErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"no GPUs":    "     CPU\nrow 1\nrow 2",
		"bad token":  "     GPU0  GPU1\nGPU0 X     ZZZ\nGPU1 ZZZ   X",
		"asymmetric": "     GPU0  GPU1\nGPU0 X     NV2\nGPU1 PIX   X",
		"bad diag":   "     GPU0  GPU1\nGPU0 NV2   NV2\nGPU1 NV2   X",
		"short row":  "     GPU0  GPU1\nGPU0 X\nGPU1 NV2 X",
		"wrong name": "     GPU0  GPU1\nGPUX X     NV2\nGPU1 NV2   X",
		"few rows":   "     GPU0  GPU1\nGPU0 X     NV2",
	}
	for name, m := range cases {
		if _, err := ParseMatrix(m); err == nil {
			t.Fatalf("case %q: expected error", name)
		}
	}
}

// TestParseMatrixTooManySockets: a socket mask is one word per machine,
// so a dump describing more sockets than that is refused, not mis-masked.
func TestParseMatrixTooManySockets(t *testing.T) {
	matrix := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, " GPU%d", i)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "\nGPU%d", i)
			for k := 0; k < n; k++ {
				if k == i {
					sb.WriteString(" X")
				} else {
					sb.WriteString(" SYS")
				}
			}
		}
		return sb.String()
	}
	if topo, err := ParseMatrix(matrix(MaxSocketsPerMachine)); err != nil || len(topo.Sockets(0)) != MaxSocketsPerMachine {
		t.Fatalf("%d one-GPU sockets: %v", MaxSocketsPerMachine, err)
	}
	if _, err := ParseMatrix(matrix(MaxSocketsPerMachine + 1)); err == nil {
		t.Fatalf("%d sockets on one machine accepted", MaxSocketsPerMachine+1)
	}
}

func TestRenderMatrixTokens(t *testing.T) {
	out := Power8Minsky().RenderMatrix()
	for _, tok := range []string{"NV2", "SYS", "X", "GPU0", "GPU3"} {
		if !strings.Contains(out, tok) {
			t.Fatalf("matrix missing %q:\n%s", tok, out)
		}
	}
	dgx := DGX1().RenderMatrix()
	if !strings.Contains(dgx, "NV1") {
		t.Fatalf("DGX-1 matrix missing NV1:\n%s", dgx)
	}
}

func TestRenderTree(t *testing.T) {
	out := Power8Minsky().RenderTree()
	for _, frag := range []string{"M0", "M0/S0", "M0/GPU0", "NVLink2", "peer links:"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("tree missing %q:\n%s", frag, out)
		}
	}
	clusterOut := Cluster(2, KindMinsky).RenderTree()
	if !strings.Contains(clusterOut, "Net") {
		t.Fatalf("cluster tree missing network root:\n%s", clusterOut)
	}
}

func TestParsedMatrixUsableForPlacementQueries(t *testing.T) {
	topo, err := ParseMatrix(minskyMatrix)
	if err != nil {
		t.Fatal(err)
	}
	best := topo.BestAllocation(2)
	if !topo.SameSocket(best[0], best[1]) {
		t.Fatalf("best allocation %v on parsed topology not packed", best)
	}
}
