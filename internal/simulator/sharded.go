package simulator

import (
	"fmt"
	"runtime"
	"sync"

	"gputopo/internal/job"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore/domains"
	"gputopo/internal/stats"
	"gputopo/internal/topology"
)

// Shard is one scheduling domain's substrate: a domain-local topology
// (machines renumbered 0..n-1) plus the global machine index each local
// machine stands for. Profiles may be nil (generated from the domain
// topology, like Config.Profiles).
type Shard struct {
	Topology *topology.Topology
	Profiles *profile.Store
	// Machines lists the global machine indices, in local machine order:
	// local machine k is global machine Machines[k].
	Machines []int
}

// RunSharded is the multi-domain mode of the simulator: jobs are routed
// across the domains up front (domains.RouteStatic over each domain's
// capacity), every domain then runs a full independent simulation on its
// own worker, and the per-domain results are merged back into the global
// machine/GPU numbering deterministically — job results merge in ID order,
// timelines by (start, job) — so the merged artifact is byte-identical at
// any worker count, the same contract the sweep engine's ForEach honors.
//
// cfg.Topology must be the global topology the shards partition — the one
// jobs were generated against and results are numbered in — so a 1-domain
// split runs the exact configuration of the unsharded engine (same
// substrate, same seed, identity GPU map) and reproduces its result byte
// for byte — TestShardedOneDomainIdentical pins that.
// Multi-domain runs derive one jitter stream per domain from cfg.Seed.
func RunSharded(cfg Config, shards []Shard, jobs []*job.Job, workers int) (*Result, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("simulator: nil topology")
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("simulator: sharded run needs at least one domain")
	}
	caps := make([]domains.Capacity, len(shards))
	topos := make([]*topology.Topology, len(shards))
	machines := make([][]int, len(shards))
	for d, sh := range shards {
		if sh.Topology == nil {
			return nil, fmt.Errorf("simulator: domain %d: nil topology", d)
		}
		caps[d], topos[d], machines[d] = domains.CapacityOf(sh.Topology), sh.Topology, sh.Machines
	}
	gpuMaps, err := domains.GPUMaps(topos, machines)
	if err != nil {
		return nil, fmt.Errorf("simulator: %w", err)
	}
	// GPUMaps accepted the shards' machines as 0..n-1, each once. They must
	// be cfg.Topology's machines, and the maps number GPUs as the shards'
	// own machine shapes dictate while results are reported against
	// cfg.Topology, so the two must also agree machine by machine.
	covered, total := 0, cfg.Topology.NumMachines()
	for d, sh := range shards {
		covered += len(sh.Machines)
		for k, gm := range sh.Machines {
			if gm >= total {
				return nil, fmt.Errorf("simulator: domain %d: global machine %d is outside the %d-machine topology", d, gm, total)
			}
			if local, global := len(sh.Topology.GPUsOfMachine(k)), len(cfg.Topology.GPUsOfMachine(gm)); local != global {
				return nil, fmt.Errorf("simulator: domain %d: machine shape mismatch: local machine %d has %d GPUs, global machine %d has %d", d, k, local, gm, global)
			}
		}
	}
	if covered < total {
		return nil, fmt.Errorf("simulator: the shards cover %d of the topology's %d machines", covered, total)
	}
	assign, err := domains.RouteStatic(caps, jobs)
	if err != nil {
		return nil, fmt.Errorf("simulator: %w", err)
	}

	routed := make([][]*job.Job, len(shards))
	for i, j := range jobs {
		routed[assign[i]] = append(routed[assign[i]], j)
	}

	// One simulation per domain, each on its own worker. Results land in
	// pre-assigned slots so merge order is independent of scheduling; the
	// lowest-indexed failure wins, like sweep.ForEach.
	results := make([]*Result, len(shards))
	errs := make([]error, len(shards))
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for d := range idx {
				sub := cfg
				sub.Topology = shards[d].Topology
				sub.Profiles = shards[d].Profiles
				if len(shards) > 1 {
					// Independent jitter streams per domain; a single domain
					// keeps cfg.Seed so it replays the unsharded run exactly.
					sub.Seed = stats.DeriveSeed(cfg.Seed, fmt.Sprintf("domain-%d", d))
				}
				results[d], errs[d] = run(sub, routed[d])
			}
		}()
	}
	for d := range shards {
		idx <- d
	}
	close(idx)
	wg.Wait()
	for d, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("simulator: domain %d: %w", d, err)
		}
	}
	return mergeShardResults(cfg, results, gpuMaps), nil
}

// mergeShardResults folds per-domain results, each in finish order, into
// one global Result and orders it once, under the engine's ordering
// contracts.
func mergeShardResults(cfg Config, results []*Result, gpuMaps [][]int) *Result {
	jobs, intervals := 0, 0
	for _, r := range results {
		jobs, intervals = jobs+len(r.Jobs), intervals+len(r.Timeline)
	}
	merged := &Result{Policy: cfg.Policy, Jobs: make([]JobResult, 0, jobs), Timeline: make([]Interval, 0, intervals)}
	for d, r := range results {
		gmap := gpuMaps[d]
		for _, jr := range r.Jobs {
			jr.GPUs = domains.GlobalGPUs(gmap, jr.GPUs)
			merged.Jobs = append(merged.Jobs, jr)
		}
		for _, iv := range r.Timeline {
			iv.GPUs = domains.GlobalGPUs(gmap, iv.GPUs)
			merged.Timeline = append(merged.Timeline, iv)
		}
		if r.Makespan > merged.Makespan {
			merged.Makespan = r.Makespan
		}
		merged.SchedStats.Add(r.SchedStats)
	}
	merged.order()
	return merged
}
