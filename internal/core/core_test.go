package core

import (
	"math"
	"testing"
	"testing/quick"

	"gputopo/internal/cluster"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/topology"
)

func minskyState() (*cluster.State, *Mapper) {
	topo := topology.Power8Minsky()
	st := cluster.NewState(topo)
	m, err := NewMapper(profile.Generate(topo, 4), DefaultWeights())
	if err != nil {
		panic(err)
	}
	return st, m
}

func TestWeightsValidation(t *testing.T) {
	if _, err := NewMapper(profile.NewStore(), Weights{CommCost: 1, Interference: 1, Fragmentation: 1}); err == nil {
		t.Fatal("weights summing to 3 accepted")
	}
	if _, err := NewMapper(profile.NewStore(), Weights{CommCost: -0.5, Interference: 1, Fragmentation: 0.5}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewMapper(nil, DefaultWeights()); err == nil {
		t.Fatal("nil profile store accepted")
	}
	if _, err := NewMapper(profile.NewStore(), DefaultWeights()); err != nil {
		t.Fatalf("default weights rejected: %v", err)
	}
}

func TestDefaultWeightsSumToOne(t *testing.T) {
	w := DefaultWeights()
	if math.Abs(w.CommCost+w.Interference+w.Fragmentation-1) > 1e-9 {
		t.Fatal("default weights do not sum to 1")
	}
}

func TestPlacePacksTwoGPUJob(t *testing.T) {
	st, m := minskyState()
	j := job.New("j", perfmodel.AlexNet, 1, 2, 0.5, 0)
	p, err := m.Place(j, st, st.FreeGPUs())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.GPUs) != 2 {
		t.Fatalf("allocated %v", p.GPUs)
	}
	if !st.Topology().SameSocket(p.GPUs[0], p.GPUs[1]) {
		t.Fatalf("DRB did not pack the communicating pair: %v", p.GPUs)
	}
	if !p.P2P {
		t.Fatal("packed pair should be P2P")
	}
	if p.CommCost != 1 {
		t.Fatalf("comm cost = %v", p.CommCost)
	}
	if p.Utility < 0.9 {
		t.Fatalf("utility on empty machine = %v", p.Utility)
	}
	if p.Interference != 1 {
		t.Fatalf("interference on empty machine = %v", p.Interference)
	}
}

func TestPlaceFourGPUJobTakesMachine(t *testing.T) {
	st, m := minskyState()
	j := job.New("j", perfmodel.AlexNet, 1, 4, 0.5, 0)
	p, err := m.Place(j, st, st.FreeGPUs())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.GPUs) != 4 {
		t.Fatalf("allocated %v", p.GPUs)
	}
	// Four GPUs on Minsky necessarily span sockets; the utility's comm
	// term is still 1 because no better 4-GPU allocation exists.
	if p.CommCost != st.Topology().BestCommCost(4) {
		t.Fatalf("comm cost %v != best %v", p.CommCost, st.Topology().BestCommCost(4))
	}
}

func TestPlaceInsufficientCandidates(t *testing.T) {
	st, m := minskyState()
	j := job.New("j", perfmodel.AlexNet, 1, 3, 0.5, 0)
	if _, err := m.Place(j, st, []int{0, 1}); err == nil {
		t.Fatal("3 GPUs from 2 candidates accepted")
	}
}

func TestPlaceRejectsOccupiedCandidate(t *testing.T) {
	st, m := minskyState()
	if err := st.Allocate("other", []int{0}, 0, perfmodel.Traits{}); err != nil {
		t.Fatal(err)
	}
	j := job.New("j", perfmodel.AlexNet, 1, 1, 0.3, 0)
	if _, err := m.Place(j, st, []int{0, 1}); err == nil {
		t.Fatal("occupied candidate accepted")
	}
}

func TestPlaceRejectsInvalidJob(t *testing.T) {
	st, m := minskyState()
	j := job.New("", perfmodel.AlexNet, 1, 1, 0.3, 0)
	if _, err := m.Place(j, st, st.FreeGPUs()); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestPlaceAvoidsInterferingSocket(t *testing.T) {
	st, m := minskyState()
	// A tiny-batch job runs on GPU0 (socket 0).
	occupant := job.New("noisy", perfmodel.AlexNet, 1, 1, 0.3, 0)
	if err := st.Allocate("noisy", []int{0}, 0, occupant.Traits()); err != nil {
		t.Fatal(err)
	}
	// A new tiny single-GPU job should land on socket 1, away from the
	// interference (Figure 8's Job 1 behaviour).
	j := job.New("j", perfmodel.AlexNet, 1, 1, 0.3, 0)
	p, err := m.Place(j, st, st.FreeGPUs())
	if err != nil {
		t.Fatal(err)
	}
	if sock := st.Topology().GPU(p.GPUs[0]).Socket; sock != 1 {
		t.Fatalf("placed on socket %d next to the noisy job", sock)
	}
}

func TestScoreCrossSocketWorseThanPacked(t *testing.T) {
	st, m := minskyState()
	j := job.New("j", perfmodel.AlexNet, 4, 2, 0.5, 0)
	packed := m.Score(j, st, []int{0, 1})
	cross := m.Score(j, st, []int{0, 2})
	if packed.Utility <= cross.Utility {
		t.Fatalf("packed utility %v <= cross %v", packed.Utility, cross.Utility)
	}
	if cross.P2P {
		t.Fatal("cross-socket pair cannot be P2P")
	}
	if cross.CommCost <= packed.CommCost {
		t.Fatal("cross-socket comm cost should be larger")
	}
	// The Table 1 thresholds separate the two: packed >= 0.5 > cross.
	if packed.Utility < 0.5 {
		t.Fatalf("packed utility %v below Table 1 threshold", packed.Utility)
	}
	if cross.Utility >= 0.5 {
		t.Fatalf("cross utility %v above Table 1 threshold", cross.Utility)
	}
}

// objective evaluates the minimization objective of Eq. 1 for a
// candidate allocation: αcc·t/t_w + αb·I_n/I_w + αd·ω/ω_w, each term
// normalized against its worst case. Lower is better. The product scores
// only Eq. 2's utility; this oracle holds the two orderings together. t_w
// is the worst pairwise-distance sum of any len(gpus) GPUs, found by
// brute force, so keep the topology small.
func objective(w Weights, j *job.Job, gpus []int, st *cluster.State, profiles *profile.Store) float64 {
	_, _, _, commCost, interference, frag := utilityTerms(j, gpus, st, profiles)
	tTerm := 0.0
	if tw := bruteForceWorstCommCost(st.Topology(), len(gpus)); tw > 0 {
		tTerm = commCost / tw
	}
	iTerm := (interference - 1) / perfmodel.MaxSlowdown
	return w.CommCost*tTerm + w.Interference*iTerm + w.Fragmentation*frag
}

// bruteForceWorstCommCost returns the largest pairwise-distance sum over
// every g-subset of topo's GPUs.
func bruteForceWorstCommCost(topo *topology.Topology, g int) float64 {
	worst := 0.0
	set := make([]int, 0, g)
	var rec func(start int)
	rec = func(start int) {
		if len(set) == g {
			worst = max(worst, topo.PairwiseDistance(set))
			return
		}
		for v := start; v < topo.NumGPUs(); v++ {
			set = append(set, v)
			rec(v + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return worst
}

func TestUtilityAndObjectiveAgree(t *testing.T) {
	// Lower objective (Eq. 1) must order placements the same way as
	// higher utility (Eq. 2) for a communication-heavy job.
	st, m := minskyState()
	j := job.New("j", perfmodel.AlexNet, 1, 2, 0.5, 0)
	packed := m.Score(j, st, []int{0, 1})
	cross := m.Score(j, st, []int{0, 2})
	objPacked := objective(m.weights, j, []int{0, 1}, st, profile.Generate(st.Topology(), 4))
	objCross := objective(m.weights, j, []int{0, 2}, st, profile.Generate(st.Topology(), 4))
	if (packed.Utility > cross.Utility) != (objPacked < objCross) {
		t.Fatalf("utility ordering (%.3f vs %.3f) disagrees with objective (%.3f vs %.3f)",
			packed.Utility, cross.Utility, objPacked, objCross)
	}
}

func TestSingleGPUUtilityIgnoresCommCost(t *testing.T) {
	st, m := minskyState()
	j := job.New("j", perfmodel.AlexNet, 1, 1, 0.3, 0)
	p := m.Score(j, st, []int{0})
	// With no communication, utility is the mean of u_b and u_d.
	if p.CommCost != 0 {
		t.Fatalf("single GPU comm cost = %v", p.CommCost)
	}
	if p.Utility <= 0 || p.Utility > 1 {
		t.Fatalf("utility = %v", p.Utility)
	}
}

func TestUtilityBounds(t *testing.T) {
	f := func(w1, w2, w3, intensity uint8) bool {
		u1 := float64(w1%101) / 100
		u2 := float64(w2%101) / 100
		u3 := float64(w3%101) / 100
		ci := float64(intensity % 5)
		u := Utility(DefaultWeights(), ci, u1, u2, u3)
		return u >= -1e-9 && u <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUtilityCommIntensityWeighting(t *testing.T) {
	w := DefaultWeights()
	// With low comm term but perfect others, a comm-heavy job scores
	// lower than a comm-light one.
	heavy := Utility(w, 4, 0.1, 1, 1)
	light := Utility(w, 1, 0.1, 1, 1)
	if heavy >= light {
		t.Fatalf("comm-heavy %v >= comm-light %v", heavy, light)
	}
	// Zero intensity: comm term fully ignored.
	if got := Utility(w, 0, 0.0, 1, 1); got != 1 {
		t.Fatalf("zero-intensity utility = %v", got)
	}
	if Utility(Weights{}, 0, 1, 1, 1) != 0 {
		t.Fatal("degenerate weights should yield 0")
	}
}

func TestPlaceOnClusterPrefersSingleMachine(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	st := cluster.NewState(topo)
	m, err := NewMapper(profile.Generate(topo, 4), DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	j := job.New("j", perfmodel.AlexNet, 1, 2, 0.5, 0)
	j.SingleNode = false // allow spanning, DRB should still pack
	p, err := m.Place(j, st, st.FreeGPUs())
	if err != nil {
		t.Fatal(err)
	}
	if !topo.SameMachine(p.GPUs[0], p.GPUs[1]) {
		t.Fatalf("DRB spread a communicating pair across machines: %v", p.GPUs)
	}
	if !topo.SameSocket(p.GPUs[0], p.GPUs[1]) {
		t.Fatalf("DRB did not pack within a socket: %v", p.GPUs)
	}
}

func TestAntiCollocateSpreadsAcrossMachines(t *testing.T) {
	topo := topology.Cluster(2, topology.KindMinsky)
	st := cluster.NewState(topo)
	m, err := NewMapper(profile.Generate(topo, 4), DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	j := job.New("j", perfmodel.AlexNet, 128, 2, 0.0, 0)
	j.SingleNode = false
	j.AntiCollocate = true
	p, err := m.Place(j, st, st.FreeGPUs())
	if err != nil {
		t.Fatal(err)
	}
	if topo.SameSocket(p.GPUs[0], p.GPUs[1]) {
		t.Fatalf("anti-collocation ignored: %v", p.GPUs)
	}
}

func TestPlacementDeterministic(t *testing.T) {
	st, m := minskyState()
	j := job.New("j", perfmodel.AlexNet, 1, 2, 0.5, 0)
	first, err := m.Place(j, st, st.FreeGPUs())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p, err := m.Place(j, st, st.FreeGPUs())
		if err != nil {
			t.Fatal(err)
		}
		if len(p.GPUs) != len(first.GPUs) || p.GPUs[0] != first.GPUs[0] || p.GPUs[1] != first.GPUs[1] {
			t.Fatalf("placement not deterministic: %v vs %v", p.GPUs, first.GPUs)
		}
	}
}

func TestDRBOnDGX1UsesNVLinkPairs(t *testing.T) {
	topo := topology.DGX1()
	st := cluster.NewState(topo)
	m, err := NewMapper(profile.Generate(topo, 8), DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	j := job.New("j", perfmodel.AlexNet, 1, 4, 0.5, 0)
	p, err := m.Place(j, st, st.FreeGPUs())
	if err != nil {
		t.Fatal(err)
	}
	// The best 4-GPU group on DGX-1 is fully NVLink-connected (e.g.
	// 0,1,2,3): every pair at distance 1.
	if got := topo.PairwiseDistance(p.GPUs); got != topo.BestCommCost(4) {
		t.Fatalf("4-GPU DRB placement %v has cost %v, best is %v",
			p.GPUs, got, topo.BestCommCost(4))
	}
	if !p.P2P {
		t.Fatalf("4-GPU NVLink clique should be P2P: %v", p.GPUs)
	}
}

func TestBusDemandPopulated(t *testing.T) {
	st, m := minskyState()
	j := job.New("j", perfmodel.AlexNet, 1, 2, 0.5, 0)
	p := m.Score(j, st, []int{0, 2})
	if p.BusDemand <= 0 {
		t.Fatalf("bus demand = %v", p.BusDemand)
	}
}
