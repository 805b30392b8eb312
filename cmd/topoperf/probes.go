package main

import (
	"fmt"
	"time"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/schedcore/placecache"
	"gputopo/internal/stats"
	"gputopo/internal/topology"
)

// probeCosts are unit costs: one public call of a layer, timed over many
// repeats on a half-busy cluster of the workload's own shape. They turn
// the traced run's counts into time (time ≈ Σ count × unit cost).
type probeCosts struct {
	repeats        int
	attemptUs      float64
	lookupNs       float64
	placeG2Us      float64
	placeG4Us      float64
	placeMultiUs   float64
	placeUs        float64 // one miss of the generated 1/2/4-GPU mix (40/40/20), for the model line
	allocReleaseNs float64
	fingerprintNs  float64
	copyFromUs     float64
}

func (p *probeCosts) report(L *metricSet) {
	L.set("schedcore.attempt_us", p.attemptUs, p.repeats)
	L.set("placecache.lookup_ns", p.lookupNs, p.repeats)
	L.set("core.place_g2_us", p.placeG2Us, p.repeats)
	L.set("core.place_g4_us", p.placeG4Us, p.repeats)
	L.set("core.place_multihost_us", p.placeMultiUs, p.repeats)
	L.set("cluster.alloc_release_ns", p.allocReleaseNs, p.repeats)
	L.set("cluster.fingerprint_ns", p.fingerprintNs, p.repeats)
	L.set("cluster.copyfrom_us", p.copyFromUs, p.repeats)
}

// timeEach returns the mean time of one call of fn over n calls, in
// nanoseconds.
func timeEach(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// halfBusy fills about half of the cluster's GPUs with TOPO-AWARE
// placements of a seeded 1/2/4-GPU job mix, machine by machine as the
// policy chooses, so the probes see fragmented, co-located machines
// like a run's middle does.
func halfBusy(topo *topology.Topology, mapper *core.Mapper, seed uint64) (*cluster.State, error) {
	st := cluster.NewState(topo)
	placer := schedcore.NewPlacer(schedcore.TopoAware, st, mapper)
	rng := stats.NewRNG(stats.DeriveSeed(seed, "probe-fill"))
	sizes := []int{1, 2, 4}
	for i := 0; st.FreeGPUCount() > topo.NumGPUs()/2; i++ {
		j := job.New(fmt.Sprintf("fill-%d", i), perfmodel.NN(rng.Intn(3)), 1<<uint(rng.Intn(6)), sizes[rng.Intn(3)], 0, 0)
		pl, _ := placer.Attempt(j)
		if pl == nil {
			return nil, fmt.Errorf("probe fill: %d-GPU job does not fit a cluster with %d GPUs free", j.GPUs, st.FreeGPUCount())
		}
		if err := st.Allocate(j.ID, pl.GPUs, pl.BusDemand, j.Traits()); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// machineWithFree returns the first machine with at least n free GPUs.
func machineWithFree(st *cluster.State, n int) (int, error) {
	for m := 0; m < st.Topology().NumMachines(); m++ {
		if st.FreeCountOnMachine(m) >= n {
			return m, nil
		}
	}
	return 0, fmt.Errorf("probe: no machine with %d free GPUs", n)
}

func runProbes(topo *topology.Topology, profiles *profile.Store, seed uint64, smoke bool) (*probeCosts, error) {
	n := 2000
	if smoke {
		n = 50
	}
	mapper, err := core.NewMapper(profiles, core.DefaultWeights())
	if err != nil {
		return nil, err
	}
	st, err := halfBusy(topo, mapper, seed)
	if err != nil {
		return nil, err
	}
	p := &probeCosts{repeats: n}
	us := func(ns float64) float64 { return ns / 1e3 }

	// One full candidate sweep of the policy, uncached: what a miss on
	// every machine would cost.
	placer := schedcore.NewPlacer(schedcore.TopoAwareP, st, mapper)
	j1 := job.New("probe-1", perfmodel.CaffeRef, 1, 1, 0.3, 0)
	j2 := job.New("probe-2", perfmodel.AlexNet, 4, 2, 0.5, 0)
	j4 := job.New("probe-4", perfmodel.GoogLeNet, 32, 4, 0.5, 0)
	p.attemptUs = us(timeEach(max(n/20, 5), func(int) { placer.Attempt(j2) }))

	// The mapper's miss path on one machine's free GPUs, and across hosts.
	var placeG1Us float64
	for _, c := range []struct {
		j   *job.Job
		out *float64
	}{{j1, &placeG1Us}, {j2, &p.placeG2Us}, {j4, &p.placeG4Us}} {
		m, err := machineWithFree(st, c.j.GPUs)
		if err != nil {
			return nil, err
		}
		cands := st.FreeGPUsOnMachine(m)
		var perr error
		*c.out = us(timeEach(n, func(int) {
			if _, err := mapper.Place(c.j, st, cands); err != nil {
				perr = err
			}
		}))
		if perr != nil {
			return nil, perr
		}
	}
	p.placeUs = 0.4*placeG1Us + 0.4*p.placeG2Us + 0.2*p.placeG4Us
	multi := job.New("probe-multi", perfmodel.AlexNet, 4, 4, 0, 0)
	multi.SingleNode = false
	var cands []int
	for m := 0; m < topo.NumMachines() && len(cands) < 6; m++ {
		cands = append(cands, st.FreeGPUsOnMachine(m)...)
	}
	var perr error
	p.placeMultiUs = us(timeEach(n, func(int) {
		if _, err := mapper.Place(multi, st, cands); err != nil {
			perr = err
		}
	}))
	if perr != nil {
		return nil, perr
	}

	// A cache hit: key construction is the caller's, Lookup the cache's.
	m2, err := machineWithFree(st, 2)
	if err != nil {
		return nil, err
	}
	sig, _ := placecache.JobSig(j2)
	key := placecache.SingleHostKey(sig, st, m2)
	cache := placecache.New(0)
	cache.Store(key, []int{0, 1}, placecache.Score{}, false)
	p.lookupNs = timeEach(n*10, func(int) { cache.Lookup(key) })

	// Allocate+Release dirties the machine; the fingerprint is rebuilt
	// on the next read, so time the pair with and without that read.
	gpus := st.FreeGPUsOnMachine(m2)[:2]
	pair := func(fingerprint bool) (float64, error) {
		var perr error
		d := timeEach(n, func(int) {
			if err := st.Allocate("probe-alloc", gpus, 0, j2.Traits()); err != nil {
				perr = err
			}
			if fingerprint {
				st.MachineFingerprint(m2)
			}
			if err := st.Release("probe-alloc"); err != nil {
				perr = err
			}
			if fingerprint {
				st.MachineFingerprint(m2)
			}
		})
		return d, perr
	}
	bare, err := pair(false)
	if err != nil {
		return nil, err
	}
	withFP, err := pair(true)
	if err != nil {
		return nil, err
	}
	p.allocReleaseNs = bare
	p.fingerprintNs = max(withFP-bare, 0) / 2

	// The victim search copies the whole state once per trial.
	clone := st.Clone()
	p.copyFromUs = us(timeEach(max(n/10, 5), func(int) { clone.CopyFrom(st) }))
	return p, nil
}
