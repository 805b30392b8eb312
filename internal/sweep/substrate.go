package sweep

import (
	"fmt"
	"sync"

	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/profile"
	"gputopo/internal/simulator"
	"gputopo/internal/topology"
	"gputopo/internal/workload"
)

// substrateCache builds each distinct simulation substrate — an immutable
// *topology.Topology plus the profile.Default store sized to it — exactly
// once per Run and shares it across all points and workers. A grid's
// points overwhelmingly reuse a handful of topology specs (a 4-policy ×
// 5-replica × 3-threshold grid used to rebuild the same 1k-machine
// substrate 60 times, O(GPUs) restricted-Dijkstra sweeps in
// computeMatrices per point), and the memoized extreme allocations the
// placer and the ideal times read are paid once per substrate, not once
// per point.
//
// Sharing is safe because both halves are immutable after construction
// and all their read paths are concurrency-safe: topology memoizes its
// extreme allocations behind per-size sync.Once entries, and the profile
// store is never Add()ed to after Generate. The per-entry sync.Once below
// additionally guarantees each substrate is built by exactly one worker
// while the rest block on it instead of duplicating the work.
// docs/architecture.md records the immutability invariants this relies
// on.
type substrateCache struct {
	mu      sync.Mutex
	entries map[substrateKey]*substrateEntry
}

// substrateKey identifies a distinct substrate: the resolved topology
// source (TopologySpec.Key covers builder/mix/matrix_file plus weight
// overrides), the directory matrix_file paths resolve against, the
// effective machine count, and whether the single-machine standalone
// builder applies (Table 1 and list points).
type substrateKey struct {
	topo       string
	specDir    string
	machines   int
	standalone bool
}

type substrateEntry struct {
	once     sync.Once
	topo     *topology.Topology
	profiles *profile.Store
	err      error
}

func newSubstrateCache() *substrateCache {
	return &substrateCache{entries: map[substrateKey]*substrateEntry{}}
}

// substrate returns the shared (topology, profiles) pair for the spec,
// building it on first use. The profile store is profile.Default, the one
// the engines build themselves when Config.Profiles is nil, so cached and
// uncached runs are bit-identical.
func (c *substrateCache) substrate(ts TopologySpec, machines int, standalone bool) (*topology.Topology, *profile.Store, error) {
	key := substrateKey{topo: ts.Key(), specDir: ts.specDir, machines: machines, standalone: standalone}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &substrateEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.topo, e.err = ts.Build(machines, standalone)
		if e.err != nil {
			return
		}
		e.profiles = profile.Default(e.topo)
	})
	return e.topo, e.profiles, e.err
}

// runPoint is the default point runner: it materializes the point's
// workload on the cached substrate and runs the selected engine.
func (c *substrateCache) runPoint(p Point) (*RunOutput, error) {
	var topo *topology.Topology
	var profiles *profile.Store
	var jobs []*job.Job
	var err error
	switch p.Source {
	case SourceTable1, SourceList:
		// Fixed job lists run on one standalone machine unless the spec
		// pins a larger cluster.
		topo, profiles, err = c.substrate(p.Topology, p.Topology.Machines, true)
		if err != nil {
			return nil, err
		}
		if p.Source == SourceTable1 {
			jobs = workload.Table1()
		} else if jobs, err = p.grid.listJobs(); err != nil {
			return nil, err
		}
	case SourceGenerated:
		// The global substrate is keyed on the spec with any domain split
		// stripped: jobs generate against the whole cluster (so the
		// workload is identical at every domain count), and a 1-domain
		// shard then resolves to this very cache entry.
		base := p.Topology
		base.Domains = ""
		topo, profiles, err = c.substrate(base, p.Machines, false)
		if err != nil {
			return nil, err
		}
		gen := workload.GenConfig{Jobs: p.Jobs, Seed: p.Seed, HighPriorityShare: p.grid.PriorityShare}
		if p.grid.RatePerMachine > 0 {
			gen.ArrivalRate = p.grid.RatePerMachine * float64(p.Machines)
		}
		jobs, err = workload.Generate(gen, topo)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sweep: unknown source %v", p.Source)
	}
	if p.Threshold >= 0 {
		for _, j := range jobs {
			if j.GPUs > 1 {
				j.MinUtility = p.Threshold
			}
		}
	}
	var weights core.Weights
	if p.AlphaCC >= 0 {
		rest := (1 - p.AlphaCC) / 2
		weights = core.Weights{CommCost: p.AlphaCC, Interference: rest, Fragmentation: rest}
	}

	disc, preempt, err := ParseDisciplineMode(p.Discipline)
	if err != nil {
		return nil, err
	}

	switch p.Engine {
	case EngineSim:
		simCfg := simulator.Config{
			Topology:         topo,
			Policy:           p.Policy,
			Weights:          weights,
			Profiles:         profiles,
			Seed:             p.Seed,
			JitterStddev:     p.grid.JitterStddev,
			Discipline:       disc,
			EnablePreemption: preempt,
		}
		if p.Topology.Domains != "" {
			if p.Source != SourceGenerated {
				return nil, fmt.Errorf("sweep: sharded domains need generated workloads")
			}
			shards, err := c.shardSubstrates(p.Topology, p.Machines)
			if err != nil {
				return nil, err
			}
			simShards := make([]simulator.Shard, len(shards))
			for d, sh := range shards {
				simShards[d] = simulator.Shard{Topology: sh.topo, Profiles: sh.profiles, Machines: sh.machines}
			}
			res, err := simulator.RunSharded(simCfg, simShards, jobs, 0)
			if err != nil {
				return nil, err
			}
			return &RunOutput{Sim: res}, nil
		}
		res, err := simulator.Run(simCfg, jobs)
		if err != nil {
			return nil, err
		}
		return &RunOutput{Sim: res}, nil
	case EngineProto:
		if p.Topology.Domains != "" {
			return nil, fmt.Errorf("sweep: sharded domains need the sim engine")
		}
		res, err := simulator.RunPrototype(simulator.PrototypeConfig{
			Topology:     topo,
			Policy:       p.Policy,
			Weights:      weights,
			Profiles:     profiles,
			Seed:         p.Seed,
			JitterStddev: p.grid.JitterStddev,
		}, jobs)
		if err != nil {
			return nil, err
		}
		return &RunOutput{Sim: &res.Result, Proto: res}, nil
	default:
		return nil, fmt.Errorf("sweep: unknown engine %v", p.Engine)
	}
}
