package perfmodel

import (
	"math"
	"testing"
	"testing/quick"

	"gputopo/internal/jobgraph"
	"gputopo/internal/topology"
)

func TestNNStringAndParse(t *testing.T) {
	for n := NN(0); n < NumNN; n++ {
		parsed, err := ParseNN(n.String())
		if err != nil || parsed != n {
			t.Fatalf("round trip %v: %v, %v", n, parsed, err)
		}
	}
	// Table 1 single-letter codes.
	for letter, want := range map[string]NN{"A": AlexNet, "C": CaffeRef, "G": GoogLeNet} {
		got, err := ParseNN(letter)
		if err != nil || got != want {
			t.Fatalf("ParseNN(%q) = %v, %v", letter, got, err)
		}
	}
	if _, err := ParseNN("ResNet"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if NN(42).String() == "" {
		t.Fatal("unknown NN must render")
	}
}

func TestComputeTimeLinearInBatch(t *testing.T) {
	for n := NN(0); n < NumNN; n++ {
		prev := ComputeTime(n, 1)
		for _, b := range []int{2, 8, 64, 128} {
			cur := ComputeTime(n, b)
			if cur <= prev {
				t.Fatalf("%v compute not increasing at batch %d", n, b)
			}
			prev = cur
		}
	}
}

// TestCalibrationFig3 checks the absolute calibration anchors of §3.2:
// AlexNet computation ≈1 s per 40 iterations at batch 1 and ≈66 s at batch
// 128, with communication ≈2 s flat.
func TestCalibrationFig3(t *testing.T) {
	topo := topology.Power8Minsky()
	pack := []int{0, 1}
	comp1 := ComputeTime(AlexNet, 1) * 40
	comp128 := ComputeTime(AlexNet, 128) * 40
	comm := CommTime(AlexNet, 2, AllocBandwidth(topo, pack)) * 40
	if math.Abs(comp1-1.0) > 0.1 {
		t.Fatalf("AlexNet 40-iter compute at b=1: %.2fs, want ≈1s", comp1)
	}
	if math.Abs(comp128-66) > 3 {
		t.Fatalf("AlexNet 40-iter compute at b=128: %.2fs, want ≈66s", comp128)
	}
	if math.Abs(comm-2.0) > 0.2 {
		t.Fatalf("AlexNet 40-iter comm: %.2fs, want ≈2s", comm)
	}
}

// TestCalibrationFig4 checks the pack-vs-spread speedup shape of Figure 4:
// ≈1.30x at batch 1 decaying toward 1.0 at batch ≥16, GoogLeNet flat.
func TestCalibrationFig4(t *testing.T) {
	topo := topology.Power8Minsky()
	s1 := PackSpreadSpeedup(AlexNet, 1, topo, 1)
	if s1 < 1.25 || s1 > 1.37 {
		t.Fatalf("AlexNet b=1 speedup %.3f outside [1.25, 1.37]", s1)
	}
	s128 := PackSpreadSpeedup(AlexNet, 128, topo, 1)
	if s128 > 1.05 {
		t.Fatalf("AlexNet b=128 speedup %.3f, want ≈1.0", s128)
	}
	// Monotone decay.
	prev := math.Inf(1)
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		s := PackSpreadSpeedup(AlexNet, b, topo, 1)
		if s > prev+1e-9 {
			t.Fatalf("speedup increased at batch %d", b)
		}
		prev = s
	}
	// GoogLeNet is nearly flat (Inception modules shrink communication).
	for _, b := range []int{1, 16, 128} {
		if s := PackSpreadSpeedup(GoogLeNet, b, topo, 1); s > 1.06 {
			t.Fatalf("GoogLeNet b=%d speedup %.3f, want ≈1.0", b, s)
		}
	}
	// CaffeRef sits between GoogLeNet and AlexNet at batch 1.
	sc := PackSpreadSpeedup(CaffeRef, 1, topo, 1)
	sg := PackSpreadSpeedup(GoogLeNet, 1, topo, 1)
	if !(sg < sc && sc <= s1+0.02) {
		t.Fatalf("ordering GoogLeNet(%.3f) < CaffeRef(%.3f) <= AlexNet(%.3f) violated", sg, sc, s1)
	}
}

// TestCalibrationPCIe checks the §3.2 text numbers: on the PCIe/K80 box
// the speedup drops to ≈1.24/1.21/1.1 at batch 1/2/8, and NVLink beats
// PCIe at every batch size.
func TestCalibrationPCIe(t *testing.T) {
	nv := topology.Power8Minsky()
	pcie := topology.PCIeBox()
	cases := map[int]float64{1: 1.24, 2: 1.21, 8: 1.10}
	for b, want := range cases {
		got := PackSpreadSpeedup(AlexNet, b, pcie, K80ComputeScale)
		if math.Abs(got-want) > 0.06 {
			t.Fatalf("PCIe b=%d speedup %.3f, want ≈%.2f", b, got, want)
		}
	}
	for _, b := range []int{1, 2, 4, 8, 16} {
		if PackSpreadSpeedup(AlexNet, b, nv, 1) <= PackSpreadSpeedup(AlexNet, b, pcie, K80ComputeScale) {
			t.Fatalf("NVLink speedup should exceed PCIe at batch %d", b)
		}
	}
}

// TestCalibrationFig6 checks the co-location interference anchors:
// tiny+tiny ≈30%, big→tiny ≈24%, big→small ≈21%, big+big ≈0 (Figure 6).
func TestCalibrationFig6(t *testing.T) {
	j := func(c jobgraph.BatchClass) Traits {
		return Traits{Model: AlexNet, Class: c, GPUs: 2}
	}
	cases := []struct {
		victim, causer jobgraph.BatchClass
		want, tol      float64
	}{
		{jobgraph.BatchTiny, jobgraph.BatchTiny, 0.30, 0.02},
		{jobgraph.BatchTiny, jobgraph.BatchBig, 0.24, 0.02},
		{jobgraph.BatchSmall, jobgraph.BatchBig, 0.21, 0.02},
		{jobgraph.BatchBig, jobgraph.BatchBig, 0.02, 0.02},
	}
	for _, c := range cases {
		got := CoLocationSlowdown(j(c.victim), j(c.causer), SameMachine)
		if math.Abs(got-c.want) > c.tol {
			t.Fatalf("slowdown(%v victim, %v causer) = %.3f, want ≈%.2f",
				c.victim, c.causer, got, c.want)
		}
	}
}

func TestInterferenceLocalityOrdering(t *testing.T) {
	v := Traits{Model: AlexNet, Class: jobgraph.BatchTiny, GPUs: 2}
	o := Traits{Model: AlexNet, Class: jobgraph.BatchTiny, GPUs: 2}
	sSock := CoLocationSlowdown(v, o, SameSocket)
	sMach := CoLocationSlowdown(v, o, SameMachine)
	sDiff := CoLocationSlowdown(v, o, DifferentMachine)
	if !(sSock > sMach && sMach > sDiff && sDiff == 0) {
		t.Fatalf("locality ordering violated: %v %v %v", sSock, sMach, sDiff)
	}
}

func TestSingleGPUJobsInterfereLess(t *testing.T) {
	multi := Traits{Model: AlexNet, Class: jobgraph.BatchTiny, GPUs: 2}
	single := Traits{Model: AlexNet, Class: jobgraph.BatchTiny, GPUs: 1}
	if Pressure(single) >= Pressure(multi) {
		t.Fatal("single-GPU job should cause less interference")
	}
	if Sensitivity(single) >= Sensitivity(multi) {
		t.Fatal("single-GPU job should suffer less interference")
	}
}

func TestGoogLeNetInterferesLess(t *testing.T) {
	alex := Traits{Model: AlexNet, Class: jobgraph.BatchTiny, GPUs: 2}
	goog := Traits{Model: GoogLeNet, Class: jobgraph.BatchTiny, GPUs: 2}
	if Pressure(goog) >= Pressure(alex) {
		t.Fatal("GoogLeNet ships ≈9x less gradient data; its pressure must be lower")
	}
}

func TestRingVolume(t *testing.T) {
	if RingVolume(AlexNet, 1) != 0 {
		t.Fatal("single GPU exchanges nothing")
	}
	// 2 GPUs: 2*(1/2)*S = S.
	if got := RingVolume(AlexNet, 2); math.Abs(got-GetSpec(AlexNet).GradBytes) > 1 {
		t.Fatalf("2-GPU ring volume = %v", got)
	}
	// 4 GPUs: 1.5*S.
	if got := RingVolume(AlexNet, 4); math.Abs(got-1.5*GetSpec(AlexNet).GradBytes) > 1 {
		t.Fatalf("4-GPU ring volume = %v", got)
	}
}

func TestCommTimeEdgeCases(t *testing.T) {
	if CommTime(AlexNet, 1, 40) != 0 {
		t.Fatal("single GPU comm time must be 0")
	}
	if !math.IsInf(CommTime(AlexNet, 2, 0), 1) {
		t.Fatal("zero bandwidth must yield infinite comm time")
	}
	// More bandwidth, less time.
	if CommTime(AlexNet, 2, 40) >= CommTime(AlexNet, 2, 10) {
		t.Fatal("comm time not decreasing in bandwidth")
	}
}

func TestAllocBandwidthIsMinPair(t *testing.T) {
	topo := topology.Power8Minsky()
	// Pack pair: dual NVLink.
	if got := AllocBandwidth(topo, []int{0, 1}); got != topology.BandwidthNVLink2 {
		t.Fatalf("pack bandwidth = %v", got)
	}
	// Mixed set {0,1,2}: limited by the routed cross-socket pair.
	mixed := AllocBandwidth(topo, []int{0, 1, 2})
	cross := topo.EffectiveBandwidth(0, 2)
	if math.Abs(mixed-cross) > 1e-9 {
		t.Fatalf("mixed bandwidth = %v, want %v", mixed, cross)
	}
	if !math.IsInf(AllocBandwidth(topo, []int{0}), 1) {
		t.Fatal("single GPU alloc bandwidth should be +Inf")
	}
}

func TestIterationTimePackBeatsSpread(t *testing.T) {
	topo := topology.Power8Minsky()
	for n := NN(0); n < NumNN; n++ {
		for _, b := range []int{1, 8, 128} {
			pack := IterationTime(n, b, topo, []int{0, 1}, 1)
			spread := IterationTime(n, b, topo, []int{0, 2}, 1)
			if pack >= spread {
				t.Fatalf("%v b=%d: pack %.4f >= spread %.4f", n, b, pack, spread)
			}
		}
	}
}

func TestIterationTimeComputeScale(t *testing.T) {
	topo := topology.PCIeBox()
	base := IterationTime(AlexNet, 8, topo, []int{0, 1}, 1)
	scaled := IterationTime(AlexNet, 8, topo, []int{0, 1}, K80ComputeScale)
	if scaled <= base {
		t.Fatal("compute scale did not slow iteration")
	}
	// Zero scale falls back to 1.
	if IterationTime(AlexNet, 8, topo, []int{0, 1}, 0) != base {
		t.Fatal("zero compute scale should default to 1")
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	topo := topology.Power8Minsky()
	for n := NN(0); n < NumNN; n++ {
		for _, b := range []int{1, 32, 128} {
			comp, comm := Breakdown(n, b, topo, []int{0, 1})
			if math.Abs(comp+comm-1) > 1e-9 {
				t.Fatalf("%v b=%d fractions sum to %v", n, b, comp+comm)
			}
		}
	}
}

func TestBreakdownCommDecreasesWithBatch(t *testing.T) {
	topo := topology.Power8Minsky()
	prev := math.Inf(1)
	for _, b := range []int{1, 4, 32, 128} {
		_, comm := Breakdown(AlexNet, b, topo, []int{0, 1})
		if comm >= prev {
			t.Fatalf("comm fraction not decreasing at batch %d", b)
		}
		prev = comm
	}
}

func TestBusDemandPositive(t *testing.T) {
	topo := topology.Power8Minsky()
	if d := BusDemand(AlexNet, 4, topo, []int{0, 2}); d <= 0 {
		t.Fatalf("cross-socket bus demand = %v", d)
	}
	// Packed jobs stage only input data; demand is smaller.
	packed := BusDemand(AlexNet, 4, topo, []int{0, 1})
	routed := BusDemand(AlexNet, 4, topo, []int{0, 2})
	if packed >= routed {
		t.Fatalf("packed demand %.3f >= routed %.3f", packed, routed)
	}
}

func TestCapSlowdown(t *testing.T) {
	if CapSlowdown(0.3) != 0.3 {
		t.Fatal("cap changed in-range value")
	}
	if CapSlowdown(9) != MaxSlowdown {
		t.Fatal("cap did not clamp")
	}
}

func TestSlowdownNonNegativeProperty(t *testing.T) {
	f := func(vc, cc, vg, cg uint8) bool {
		v := Traits{Model: NN(vc % 3), Class: jobgraph.BatchClass(vc % 4), GPUs: 1 + int(vg%4)}
		c := Traits{Model: NN(cc % 3), Class: jobgraph.BatchClass(cc % 4), GPUs: 1 + int(cg%4)}
		for _, l := range []Locality{SameSocket, SameMachine, DifferentMachine} {
			s := CoLocationSlowdown(v, c, l)
			if s < 0 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpecsSane(t *testing.T) {
	for n := NN(0); n < NumNN; n++ {
		s := GetSpec(n)
		if s.Params <= 0 || s.GradBytes <= 0 || s.CompBase <= 0 ||
			s.CompPerSample <= 0 || s.CommOverhead <= 0 {
			t.Fatalf("%v spec has non-positive fields: %+v", n, s)
		}
		// FP32 gradient bytes ≈ 4·params.
		if math.Abs(s.GradBytes-4*float64(s.Params)) > 0.2*s.GradBytes {
			t.Fatalf("%v grad bytes %.0f inconsistent with %d params", n, s.GradBytes, s.Params)
		}
	}
	// GoogLeNet's Inception modules: far fewer parameters than AlexNet.
	if GetSpec(GoogLeNet).Params*5 > GetSpec(AlexNet).Params {
		t.Fatal("GoogLeNet should have ≈9x fewer parameters than AlexNet")
	}
}
