package sweep

import (
	"fmt"
	"sort"

	"gputopo/internal/schedcore"
	"gputopo/internal/topology"
)

// namedGrids is the registry of predefined sweeps the toposweep CLI (and
// CI) can run by name. Each entry is a function of the base seed so the
// whole sweep reseeds coherently from one flag.
var namedGrids = map[string]struct {
	desc  string
	build func(seed uint64) Grid
}{
	"smoke": {
		desc: "CI smoke: 4 policies × {2,5} machines × {40,100} jobs × 2 replicas (32 points, sub-minute)",
		build: func(seed uint64) Grid {
			return Grid{
				Name:           "smoke",
				Topologies:     []TopologySpec{{Builder: "minsky"}},
				Machines:       []int{2, 5},
				Jobs:           []int{40, 100},
				Replicas:       2,
				BaseSeed:       seed,
				RatePerMachine: 2,
			}
		},
	},
	"default": {
		desc: "policy × cluster-size × load sweep: 4 policies × {2,5,10} machines × {50,100,200} jobs × 3 replicas (108 points)",
		build: func(seed uint64) Grid {
			return Grid{
				Name:           "default",
				Topologies:     []TopologySpec{{Builder: "minsky"}},
				Machines:       []int{2, 5, 10},
				Jobs:           []int{50, 100, 200},
				Replicas:       3,
				BaseSeed:       seed,
				RatePerMachine: 2,
			}
		},
	},
	"scenario1": {
		desc: "§5.5 scenario 1 at paper scale with replicas: 4 policies × 5 machines × 100 jobs × 5 replicas",
		build: func(seed uint64) Grid {
			return Grid{
				Name:           "scenario1",
				Topologies:     []TopologySpec{{Builder: "minsky"}},
				Machines:       []int{5},
				Jobs:           []int{100},
				Replicas:       5,
				BaseSeed:       seed,
				RatePerMachine: 2,
			}
		},
	},
	"scenario2": {
		desc: "§5.5 scenario 2 at paper scale: 4 policies × 1000 machines × 10000 jobs",
		build: func(seed uint64) Grid {
			return Grid{
				Name:           "scenario2",
				Topologies:     []TopologySpec{{Builder: "minsky"}},
				Machines:       []int{1000},
				Jobs:           []int{10000},
				BaseSeed:       seed,
				RatePerMachine: 2,
			}
		},
	},
	"alpha": {
		desc: "αcc utility-weight ablation under TOPO-AWARE-P, 3 replicas",
		build: func(seed uint64) Grid {
			return Grid{
				Name:       "alpha",
				Policies:   []schedcore.Policy{schedcore.TopoAwareP},
				Topologies: []TopologySpec{{Builder: "minsky"}},
				Machines:   []int{5},
				Jobs:       []int{100},
				AlphasCC:   []float64{0, 0.2, 1.0 / 3, 0.5, 0.8, 1},
				Replicas:   3,
				BaseSeed:   seed,
			}
		},
	},
	"threshold": {
		desc: "TOPO-AWARE-P postponement-threshold ablation, 3 replicas",
		build: func(seed uint64) Grid {
			return Grid{
				Name:       "threshold",
				Policies:   []schedcore.Policy{schedcore.TopoAwareP},
				Topologies: []TopologySpec{{Builder: "minsky"}},
				Machines:   []int{5},
				Jobs:       []int{100},
				Thresholds: []float64{0, 0.3, 0.5, 0.7, 0.9},
				Replicas:   3,
				BaseSeed:   seed,
			}
		},
	},
	"table1": {
		desc: "Table 1 six-job prototype scenario across all 4 policies (simulator engine)",
		build: func(seed uint64) Grid {
			return Grid{
				Name:       "table1",
				Source:     SourceTable1,
				Topologies: []TopologySpec{{Builder: "minsky"}},
				BaseSeed:   seed,
			}
		},
	},
	"topology": {
		desc: "topology ablation: 4 policies × {4×Minsky, 2×DGX-1, 4×PCIe} (16 GPUs each) × 3 replicas",
		build: func(seed uint64) Grid {
			return Grid{
				Name: "topology",
				// Equal GPU capacity per variant (16 GPUs) so the axis
				// isolates interconnect structure, not cluster size. The
				// cluster-wide default arrival rate (λ = 10 jobs/min)
				// keeps the offered load identical across variants too.
				Topologies: []TopologySpec{
					{Builder: "minsky", Machines: 4},
					{Builder: "dgx1", Machines: 2},
					{Builder: "pcie", Machines: 4},
				},
				Jobs:     []int{80},
				Replicas: 3,
				BaseSeed: seed,
			}
		},
	},
	"hetero": {
		desc: "heterogeneous clusters: 4 policies × {minsky:2+dgx1:1, dgx1:1+pcie:2, minsky:1+dgx1:1+pcie:1} (16 GPUs each) × 2 replicas (24 points)",
		build: func(seed uint64) Grid {
			return Grid{
				Name: "hetero",
				// Equal GPU capacity per mix (16 GPUs) so the axis
				// isolates machine heterogeneity, not cluster size —
				// mixed-generation fleets are the datacenter norm, and
				// they exercise the allocator's per-shape extremal
				// search (alloc.go) that homogeneous clusters mask.
				Topologies: []TopologySpec{
					{Mix: []MixEntry{{Kind: "minsky", Count: 2}, {Kind: "dgx1", Count: 1}}},
					{Mix: []MixEntry{{Kind: "dgx1", Count: 1}, {Kind: "pcie", Count: 2}}},
					{Mix: []MixEntry{{Kind: "minsky", Count: 1}, {Kind: "dgx1", Count: 1}, {Kind: "pcie", Count: 1}}},
				},
				Jobs:     []int{60},
				Replicas: 2,
				BaseSeed: seed,
			}
		},
	},
	"priority": {
		desc: "queue-discipline ablation: TOPO-AWARE-P × {fifo, priority, priority-preempt} on minsky:2, 60 jobs (20% priority-1) × 3 replicas (9 points)",
		build: func(seed uint64) Grid {
			return Grid{
				Name:     "priority",
				Policies: []schedcore.Policy{schedcore.TopoAwareP},
				// Two machines keep the cluster contended enough that the
				// disciplines actually diverge: priority jobs must overtake
				// (and, preemptively, evict) to win their wait-time edge on
				// both makespan and high_pri_wait_s.
				Topologies:    []TopologySpec{{Mix: []MixEntry{{Kind: "minsky", Count: 2}}}},
				Jobs:          []int{60},
				Disciplines:   []string{"fifo", "priority", "priority-preempt"},
				PriorityShare: 0.2,
				Replicas:      3,
				BaseSeed:      seed,
			}
		},
	},
	"sharded": {
		desc: "sharded multi-domain scheduling: TOPO-AWARE{,-P} × {minsky:8, minsky:2+dgx1:2} × domains {single-core, hash:4, block:4, kind} × 2 replicas (32 points)",
		build: func(seed uint64) Grid {
			return Grid{
				Name:     "sharded",
				Policies: []schedcore.Policy{schedcore.TopoAware, schedcore.TopoAwareP},
				// One homogeneous fleet (hash and block split it 4 ways;
				// kind degenerates to a single domain) and one mixed fleet
				// (kind gives one domain per machine generation), so the
				// golden pins every partition strategy including the
				// sub-spec recompression of heterogeneous runs.
				Topologies: []TopologySpec{
					{Builder: "minsky", Machines: 8},
					{Mix: []MixEntry{{Kind: "minsky", Count: 2}, {Kind: "dgx1", Count: 2}}},
				},
				Domains:        []string{"", "hash:4", "block:4", "kind"},
				Jobs:           []int{60},
				Replicas:       2,
				BaseSeed:       seed,
				RatePerMachine: 2,
			}
		},
	},
	"levelweights": {
		desc: "§4.1.2 level-weight ablation: Table 1 under TOPO-AWARE-P with socket weights {5,10,20,40,100}",
		build: func(seed uint64) Grid {
			specs := make([]TopologySpec, 0, 5)
			for _, w := range []float64{5, 10, 20, 40, 100} {
				specs = append(specs, TopologySpec{
					Builder: "minsky",
					Weights: &topology.LevelWeights{Socket: w},
				})
			}
			return Grid{
				Name:       "levelweights",
				Source:     SourceTable1,
				Policies:   []schedcore.Policy{schedcore.TopoAwareP},
				Topologies: specs,
				BaseSeed:   seed,
			}
		},
	},
}

// Named builds the predefined grid with the given name, reseeded from
// seed.
func Named(name string, seed uint64) (Grid, error) {
	entry, ok := namedGrids[name]
	if !ok {
		return Grid{}, fmt.Errorf("sweep: unknown grid %q (use one of %v)", name, GridNames())
	}
	return entry.build(seed), nil
}

// GridNames lists the registered grid names, sorted.
func GridNames() []string {
	names := make([]string, 0, len(namedGrids))
	for name := range namedGrids {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// GridDescription returns the one-line description of a registered grid
// ("" when unknown).
func GridDescription(name string) string {
	return namedGrids[name].desc
}
