package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/graph"
	"gputopo/internal/job"
	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/topology"
)

// placeReference is PlaceInto running the recursion the mapper had before
// a full level took its GPUs outright and before each side's terms were
// taken once per level: every level below the top is split by FM and
// scored task by task until a side holds one GPU, and every side utility
// recomputes all its terms. The physical bi-partition, the scoring of the
// assignment and the anti-collocation path are the product's own.
func placeReference(m *Mapper, dst *Placement, j *job.Job, st *cluster.State, candidates []int) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if len(candidates) < j.GPUs {
		return fmt.Errorf("core: job %s needs %d GPUs, only %d candidates", j.ID, j.GPUs, len(candidates))
	}
	for _, pos := range candidates {
		if st.Owner(pos) != "" {
			return fmt.Errorf("core: candidate GPU %d is not free", pos)
		}
	}
	if j.AntiCollocate {
		return m.placeAntiCollocated(dst, j, st, candidates)
	}
	d := &drbRun{mapper: m, job: j, state: st, affinity: graph.New()}
	tasks := make([]int, j.GPUs)
	for i := range tasks {
		tasks[i] = i
	}
	gpus := slices.Clone(candidates)
	slices.Sort(gpus)
	d.assignment = make([]int, j.GPUs)
	for i := range d.assignment {
		d.assignment[i] = -1
	}
	if err := referenceRecurse(d, tasks, gpus); err != nil {
		return err
	}
	for task, gpu := range d.assignment {
		if gpu < 0 {
			return fmt.Errorf("core: task %d of job %s left unmapped", task, j.ID)
		}
	}
	slices.Sort(d.assignment)
	m.ScoreInto(dst, j, st, d.assignment)
	return nil
}

// referenceRecurse is Algorithm 2 recursing until a side holds a single
// GPU.
func referenceRecurse(d *drbRun, tasks, gpus []int) error {
	if len(tasks) == 0 {
		return nil
	}
	if len(tasks) > len(gpus) {
		return fmt.Errorf("core: %d tasks cannot map onto %d GPUs", len(tasks), len(gpus))
	}
	if len(gpus) == 1 {
		d.assignment[tasks[0]] = gpus[0]
		return nil
	}
	mark := len(d.arena)
	p0, p1 := d.physicalGraphBiPartition(gpus)
	a0, a1, err := referenceJobGraphBiPartition(d, tasks, p0, p1)
	if err == nil {
		err = referenceRecurse(d, a0, p0)
	}
	if err == nil {
		err = referenceRecurse(d, a1, p1)
	}
	d.arena = d.arena[:mark]
	return err
}

// referenceJobGraphBiPartition is Algorithm 3 scoring both sides afresh
// for every task. The anti-collocation override it once carried is left
// out: no anti-collocated job reaches the recursion.
func referenceJobGraphBiPartition(d *drbRun, tasks, p0, p1 []int) (a0, a1 []int, err error) {
	comm := d.job.CommGraph()
	order := slices.Clone(tasks)
	slices.SortStableFunc(order, func(a, b int) int {
		da, db := comm.Underlying().WeightedDegree(a), comm.Underlying().WeightedDegree(b)
		switch {
		case da > db:
			return -1
		case da < db:
			return 1
		default:
			return 0
		}
	})
	side := make([]int8, d.job.GPUs)
	for i := range side {
		side[i] = -1
	}
	a0, a1 = d.take(len(tasks))[:0], d.take(len(tasks))[:0]
	for _, task := range order {
		u0 := referenceSideUtility(d, task, 0, p0, p1, side)
		u1 := referenceSideUtility(d, task, 1, p0, p1, side)
		cap0 := len(p0) - len(a0)
		cap1 := len(p1) - len(a1)
		pick := 1
		if (u0 >= u1 && cap0 > 0) || cap1 == 0 {
			pick = 0
		}
		if pick == 0 && cap0 == 0 {
			return nil, nil, fmt.Errorf("core: no capacity on either side for task %d", task)
		}
		if pick == 0 {
			a0 = append(a0, task)
		} else {
			a1 = append(a1, task)
		}
		side[task] = int8(pick)
	}
	return a0, a1, nil
}

// referenceSideUtility scores placing task into side y with every term
// computed for this task alone.
func referenceSideUtility(d *drbRun, task, y int, p0, p1 []int, side []int8) float64 {
	topo := d.state.Topology()
	mine, other := p0, p1
	if y == 1 {
		mine, other = p1, p0
	}
	comm := d.job.CommGraph()
	intra := meanIntraDistance(topo, mine)
	cross := meanCrossDistance(topo, mine, other)
	var commCost float64
	for peer, peerSide := range side {
		if peerSide < 0 {
			continue
		}
		w := comm.Weight(task, peer)
		if w == 0 {
			continue
		}
		if int(peerSide) == y {
			commCost += w * intra
		} else {
			commCost += w * cross
		}
	}
	best := topo.MinPairDistance()
	uCC := 1.0
	if commCost > best {
		uCC = best / commCost
	}
	interference := predictInterference(d.job, mine, d.state, d.mapper.profiles)
	uB := 1 / interference
	take := len(mine)
	if take > d.job.GPUs {
		take = d.job.GPUs
	}
	uD := 1 - d.state.FragmentationAfter(mine[:take])
	return Utility(d.mapper.weights, d.job.CommIntensity(), uCC, uB, uD)
}

// samePlacement reports how a and b differ, comparing every float by its
// bits; "" when they are equal.
func samePlacement(a, b *Placement) string {
	floats := []struct {
		name string
		x, y float64
	}{
		{"Utility", a.Utility, b.Utility},
		{"CommCost", a.CommCost, b.CommCost},
		{"Interference", a.Interference, b.Interference},
		{"Fragmentation", a.Fragmentation, b.Fragmentation},
		{"BusDemand", a.BusDemand, b.BusDemand},
	}
	switch {
	case !slices.Equal(a.GPUs, b.GPUs):
		return fmt.Sprintf("GPUs %v, reference %v", a.GPUs, b.GPUs)
	case a.P2P != b.P2P:
		return fmt.Sprintf("P2P %v, reference %v", a.P2P, b.P2P)
	}
	for _, f := range floats {
		if math.Float64bits(f.x) != math.Float64bits(f.y) {
			return fmt.Sprintf("%s %v (%#x), reference %v (%#x)", f.name, f.x, math.Float64bits(f.x), f.y, math.Float64bits(f.y))
		}
	}
	return ""
}

// referenceFleets are the fleets TestPlaceIntoEqualsReference draws states
// on: each machine kind, a mix of degraded Minskys and DGX-1s, and a mix
// of all three kinds — the last twice, the second time with level weights
// whose distances add up inexactly, so a float sum taken in another order
// shows in the bits.
var referenceFleets = []struct {
	mix     string
	weights topology.LevelWeights
}{
	{mix: "minsky:4"},
	{mix: "dgx1:3"},
	{mix: "pcie:4"},
	{mix: "minsky:1+minsky-1g:2+minsky-2g:1+dgx1-3g:1"},
	{mix: "minsky:2+dgx1:1+pcie:2"},
	{"minsky:2+dgx1:1+pcie:2", topology.LevelWeights{GPUPeer: 0.3, GPULink: 0.7, Switch: 3.1, Socket: 7.3, Machine: 29.9}},
}

// referenceJob draws a job of g GPUs: any model, batch class and
// parallelism, and for a multi-GPU job sometimes a ring or star graph
// (shaped), sometimes anti-collocation.
func referenceJob(rng *rand.Rand, id string, g int) (j *job.Job, shaped bool) {
	tr := randomTraits(rng, g)
	j = job.New(id, tr.Model, tr.Class.Size(), g, 0.5, 0)
	j.Parallelism = tr.Mode
	if g == 1 {
		return j, false
	}
	var err error
	switch rng.Intn(6) {
	case 0:
		err, shaped = j.SetCommGraph(jobgraph.Ring(g, 1+rng.Float64()*3)), true
	case 1:
		err, shaped = j.SetCommGraph(jobgraph.Star(g, 1+rng.Float64()*3)), true
	case 2:
		j.AntiCollocate = true
	}
	if err != nil {
		panic(err)
	}
	return j, shaped
}

// TestPlaceIntoEqualsReference holds PlaceInto to placeReference, bit for
// bit on every field of the placement and on the error, over random
// occupied states of every fleet, 1/2/3/4/8-GPU jobs (all-to-all, ring,
// star, model-parallel, anti-collocated) and candidate sets drawn from one
// machine, from several, and from the whole cluster.
func TestPlaceIntoEqualsReference(t *testing.T) {
	var cases, placed, multiNode, full, partial, modelParallel, shaped int
	for _, fleet := range referenceFleets {
		specs, err := topology.ParseMix(fleet.mix)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := topology.HeterogeneousClusterWeights(specs, fleet.weights)
		if err != nil {
			t.Fatal(err)
		}
		mapper, err := NewMapper(profile.Generate(topo, 4), DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			st := cluster.NewState(topo)
			if seed%5 != 0 {
				populate(t, rng, st)
			}
			for trial := 0; trial < 30; trial++ {
				var pool []int
				switch trial % 3 {
				case 0: // one machine
					pool = st.FreeGPUsOnMachine(rng.Intn(topo.NumMachines()))
				case 1: // two or three machines
					for k := 2 + rng.Intn(2); k > 0; k-- {
						pool = append(pool, st.FreeGPUsOnMachine(rng.Intn(topo.NumMachines()))...)
					}
					slices.Sort(pool)
					pool = slices.Compact(pool)
				default: // the whole cluster
					pool = st.FreeGPUs()
				}
				rng.Shuffle(len(pool), func(i, k int) { pool[i], pool[k] = pool[k], pool[i] })
				for _, g := range []int{1, 2, 3, 4, 8} {
					j, ringOrStar := referenceJob(rng, fmt.Sprintf("s%d-t%d-g%d", seed, trial, g), g)
					var got, want Placement
					gotErr := mapper.PlaceInto(&got, j, st, pool)
					wantErr := placeReference(mapper, &want, j, st, pool)
					where := fmt.Sprintf("%s %+v seed %d trial %d: %d-GPU %v (ring or star %v, anti %v, mode %v) on %v",
						fleet.mix, fleet.weights, seed, trial, g, j.Model, ringOrStar, j.AntiCollocate, j.Parallelism, pool)
					// Both fail together: with the job's own validation error,
					// or with ErrInfeasible where the reference words the cause.
					if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && !errors.Is(gotErr, ErrInfeasible) && gotErr.Error() != wantErr.Error()) {
						t.Fatalf("%s: PlaceInto error %v, reference %v", where, gotErr, wantErr)
					}
					cases++
					if gotErr != nil {
						continue
					}
					if diff := samePlacement(&got, &want); diff != "" {
						t.Fatalf("%s: %s", where, diff)
					}
					placed++
					if len(st.MachinesOf(got.GPUs)) > 1 {
						multiNode++
					}
					if len(pool) == g {
						full++
					} else {
						partial++
					}
					if j.Parallelism == perfmodel.ModelParallel {
						modelParallel++
					}
					if ringOrStar {
						shaped++
					}
				}
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d cases, %d placed: %d over several machines, %d on exactly their GPU count, %d with spare candidates, %d model-parallel, %d ring or star",
		cases, placed, multiNode, full, partial, modelParallel, shaped)
	for name, n := range map[string]int{"multi-node": multiNode, "full": full, "partial": partial, "model-parallel": modelParallel, "ring or star": shaped} {
		if n < 50 {
			t.Errorf("only %d of %d placements cover %s", n, placed, name)
		}
	}
}
