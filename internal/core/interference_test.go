package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/job"
	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/topology"
)

// predictInterferenceNaive is the interference term as it was computed
// before the cluster state kept resident tables and the profile store a
// dense parameter table: co-runner IDs re-collected from the owner table
// (machines ascending, IDs sorted within a machine, cross-machine
// duplicates skipped), each looked up by ID, its locality found by
// comparing sockets GPU by GPU, and its parameters read through
// Store.Lookup with the performance model as the fallback. It shares no
// table with predictInterference, which must agree with it to the bit.
// spans reports whether a co-runner was met on a second machine.
func predictInterferenceNaive(j *job.Job, gpus []int, st *cluster.State, profiles *profile.Store) (slowdown float64, coRunners int, sameSocket, spans bool) {
	topo := st.Topology()
	var machines []int
	for _, pos := range gpus {
		if m := topo.GPU(pos).Machine; !slices.Contains(machines, m) {
			machines = append(machines, m)
		}
	}
	slices.Sort(machines)

	var ids []string
	for _, m := range machines {
		start := len(ids)
		for _, pos := range topo.GPUsOfMachine(m) {
			o := st.Owner(pos)
			if o == "" || slices.Contains(ids[start:], o) {
				continue
			}
			if slices.Contains(ids[:start], o) {
				spans = true
				continue
			}
			ids = append(ids, o)
		}
		slices.Sort(ids[start:])
	}

	victim := j.Traits()
	sens := perfmodel.Sensitivity(victim)
	if e, ok := profiles.Lookup(profile.KeyOf(victim)); ok {
		sens = e.Sensitivity
	}
	var sum float64
	for _, other := range ids {
		alloc := st.Allocation(other)
		f := 1.0
		for _, g := range gpus {
			for _, og := range alloc.GPUs {
				if topo.SameSocket(g, og) {
					f, sameSocket = 2.0, true
				}
			}
		}
		pres := perfmodel.Pressure(alloc.Traits)
		if e, ok := profiles.Lookup(profile.KeyOf(alloc.Traits)); ok {
			pres = e.Pressure
		}
		sum += sens * pres * f
	}
	return 1 + perfmodel.CapSlowdown(sum), len(ids), sameSocket, spans
}

func mixedFleet(t *testing.T, mix string) *topology.Topology {
	t.Helper()
	specs, err := topology.ParseMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.HeterogeneousCluster(specs)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// randomTraits draws model, batch class and parallelism; the GPU count is
// the caller's.
func randomTraits(rng *rand.Rand, gpus int) perfmodel.Traits {
	return perfmodel.Traits{
		Model: perfmodel.NN(rng.Intn(perfmodel.NumNN)),
		Class: jobgraph.BatchClass(rng.Intn(4)),
		GPUs:  gpus,
		Mode:  perfmodel.Parallelism(rng.Intn(2)),
	}
}

// populate fills st about half full with one- to three-GPU jobs: most on
// one machine, every other spread over two, and machine 0 left empty.
func populate(t *testing.T, rng *rand.Rand, st *cluster.State) {
	t.Helper()
	topo := st.Topology()
	for n := 0; n < 3*topo.NumMachines()/2; n++ {
		m := 1 + rng.Intn(topo.NumMachines()-1)
		free := st.FreeGPUsOnMachine(m)
		if n%2 == 1 {
			if m2 := 1 + rng.Intn(topo.NumMachines()-1); m2 != m {
				free = append(free, st.FreeGPUsOnMachine(m2)...)
			}
		}
		if len(free) == 0 {
			continue
		}
		rng.Shuffle(len(free), func(i, k int) { free[i], free[k] = free[k], free[i] })
		gpus := free[:min(1+rng.Intn(3), len(free))]
		// IDs deliberately out of allocation order, so sorted-ID order and
		// position order differ.
		id := fmt.Sprintf("job-%02d", (n*7)%23)
		if st.Allocation(id) != nil {
			continue
		}
		if err := st.Allocate(id, gpus, 1, randomTraits(rng, len(gpus))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPredictInterferenceBitsEqualNaive demands math.Float64bits equality
// between predictInterference and the enumeration it replaced, on random
// states over each machine kind and a mix, for candidate GPU sets on one
// machine and across several (an empty machine among them), with jobs
// that span two of the candidates' machines, model-parallel co-runners,
// and job sizes the profile store has no entry for.
func TestPredictInterferenceBitsEqualNaive(t *testing.T) {
	var cases, withCoRunners, sameSocket, spanning, multiMachine int
	for _, mix := range []string{"minsky:5", "dgx1:4", "pcie:4", "minsky:2+minsky-1g:1+dgx1:2+pcie:2"} {
		topo := mixedFleet(t, mix)
		// Profiles up to three GPUs: a four- or five-GPU job has no class
		// of its size in the store and falls back to the model.
		profiles := profile.Generate(topo, 3)
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			st := cluster.NewState(topo)
			populate(t, rng, st)
			for trial := 0; trial < 40; trial++ {
				// Candidates: free GPUs of up to three machines — random
				// ones, or the machines of a running job and one more.
				var pool []int
				if ids := st.Jobs(); trial%2 == 0 && len(ids) > 0 {
					for _, m := range st.MachinesOf(st.Allocation(ids[rng.Intn(len(ids))]).GPUs) {
						pool = append(pool, st.FreeGPUsOnMachine(m)...)
					}
				}
				for k := rng.Intn(3); k > 0 || len(pool) == 0; k-- {
					pool = append(pool, st.FreeGPUsOnMachine(rng.Intn(topo.NumMachines()))...)
					if k < -8 {
						break // a full cluster
					}
				}
				slices.Sort(pool)
				pool = slices.Compact(pool)
				if len(pool) == 0 {
					continue
				}
				rng.Shuffle(len(pool), func(i, k int) { pool[i], pool[k] = pool[k], pool[i] })
				gpus := pool[:1+rng.Intn(len(pool))]
				if trial%4 == 0 {
					gpus = pool // every machine drawn is under the candidates
				}
				victim := randomTraits(rng, 1+rng.Intn(5))
				j := job.New("victim", victim.Model, victim.Class.Size(), victim.GPUs, 0.5, 0)
				j.Parallelism = victim.Mode

				want, n, ss, spans := predictInterferenceNaive(j, gpus, st, profiles)
				got := predictInterference(j, gpus, st, profiles)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s seed %d trial %d: candidates %v, victim %+v: predictInterference = %v (%#x), naive = %v (%#x)",
						mix, seed, trial, gpus, victim, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				cases++
				if n > 0 {
					withCoRunners++
				}
				if ss {
					sameSocket++
				}
				if spans {
					spanning++
				}
				if len(st.MachinesOf(gpus)) > 1 {
					multiMachine++
				}
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d cases: %d with co-runners, %d sharing a socket, %d over several machines, %d with a job spanning two of them",
		cases, withCoRunners, sameSocket, multiMachine, spanning)
	for name, n := range map[string]int{"co-runners": withCoRunners, "same-socket": sameSocket, "multi-machine": multiMachine, "spanning job": spanning} {
		if n < 100 {
			t.Errorf("only %d of %d cases cover %s", n, cases, name)
		}
	}
}

// TestPredictInterferenceAllocatesNothing: on a state whose resident rows
// are warm, the interference term of a candidate set is allocation-free.
func TestPredictInterferenceAllocatesNothing(t *testing.T) {
	topo := topology.Cluster(2, topology.KindDGX1)
	profiles := profile.Generate(topo, 4)
	st := cluster.NewState(topo)
	for i := 0; i < 5; i++ {
		tr := perfmodel.Traits{Model: perfmodel.AlexNet, Class: jobgraph.BatchSmall, GPUs: 1}
		if err := st.Allocate(fmt.Sprintf("j%d", i), []int{i}, 1, tr); err != nil {
			t.Fatal(err)
		}
	}
	j := job.New("victim", perfmodel.CaffeRef, 4, 2, 0.5, 0)
	for _, gpus := range [][]int{{5, 6}, {7, 8, 9}} {
		predictInterference(j, gpus, st, profiles)
		if n := testing.AllocsPerRun(100, func() { predictInterference(j, gpus, st, profiles) }); n != 0 {
			t.Fatalf("predictInterference over %v allocates %v times", gpus, n)
		}
	}
}

// interferenceOn scores victim on GPUs gpus of a two-DGX-1 cluster where
// each of causers names a GPU held by a tiny-batch AlexNet job.
func interferenceOn(t *testing.T, victim *job.Job, gpus []int, causers ...int) float64 {
	t.Helper()
	topo := topology.Cluster(2, topology.KindDGX1)
	st := cluster.NewState(topo)
	for i, pos := range causers {
		tr := perfmodel.Traits{Model: perfmodel.AlexNet, Class: jobgraph.BatchTiny, GPUs: 2}
		if err := st.Allocate(fmt.Sprintf("c%d", i), []int{pos}, 1, tr); err != nil {
			t.Fatal(err)
		}
	}
	return predictInterference(victim, gpus, st, profile.Generate(topo, 4))
}

func TestPredictInterferenceLocality(t *testing.T) {
	victim := job.New("v", perfmodel.AlexNet, 1, 2, 0.5, 0)
	// GPUs 0-3 are socket 0 of machine 0, 4-7 its socket 1, 8-15 machine 1.
	if got := interferenceOn(t, victim, []int{0, 1}); got != 1 {
		t.Fatalf("no co-runners: I = %v, want 1", got)
	}
	same := interferenceOn(t, victim, []int{0, 1}, 4)
	if same <= 1 {
		t.Fatalf("same-machine interference = %v, want > 1", same)
	}
	if sock := interferenceOn(t, victim, []int{0, 1}, 2); sock <= same {
		t.Fatal("same-socket interference should exceed same-machine")
	}
	if far := interferenceOn(t, victim, []int{0, 1}, 8); far != 1 {
		t.Fatalf("different-machine interference = %v, want 1", far)
	}
	// The Figure 6 anchor: tiny+tiny on the same machine ≈ 1.30.
	if same < 1.25 || same > 1.35 {
		t.Fatalf("tiny+tiny same-machine I = %v, want ≈1.30", same)
	}
}

func TestPredictInterferenceAccumulatesAndCaps(t *testing.T) {
	victim := job.New("v", perfmodel.AlexNet, 1, 2, 0.5, 0)
	one := interferenceOn(t, victim, []int{0, 1}, 2)
	two := interferenceOn(t, victim, []int{0, 1}, 2, 3)
	if two <= one {
		t.Fatal("two co-runners should interfere more than one")
	}
	// Six tiny co-runners sum to 2.4, past the cap.
	if got := interferenceOn(t, victim, []int{0, 1}, 2, 3, 4, 5, 6, 7); got != 1+perfmodel.MaxSlowdown {
		t.Fatalf("six co-runners: I = %v, want the cap %v", got, 1+perfmodel.MaxSlowdown)
	}
}
