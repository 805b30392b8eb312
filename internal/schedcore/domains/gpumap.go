package domains

import (
	"fmt"

	"gputopo/internal/topology"
)

// GPUMaps returns, per domain, the map from the domain's local GPU
// positions to cluster-wide ones; a nil entry is the identity (always so
// for a lone domain). locals[d] is domain d's topology and machines[d][k]
// the global index of its local machine k; together the machine lists
// must cover 0..M-1 exactly once. A topology numbers its GPUs machine by
// machine in machine order, so a global machine's first position is the
// GPU count of the machines before it — the cluster-wide topology never
// has to be built.
func GPUMaps(locals []*topology.Topology, machines [][]int) ([][]int, error) {
	if len(locals) != len(machines) {
		return nil, fmt.Errorf("domains: %d domain topologies, %d machine lists", len(locals), len(machines))
	}
	total := 0
	for _, ms := range machines {
		total += len(ms)
	}
	first := make([]int, total+1) // first[m+1]-first[m] = GPUs of global machine m
	claimed := make([]bool, total)
	for d, local := range locals {
		if local.NumMachines() != len(machines[d]) {
			return nil, fmt.Errorf("domains: domain %d: topology has %d machines, %d global indices given", d, local.NumMachines(), len(machines[d]))
		}
		for k, m := range machines[d] {
			if m < 0 || m >= total {
				return nil, fmt.Errorf("domains: domain %d: global machine index %d out of range (%d machines)", d, m, total)
			}
			if claimed[m] {
				return nil, fmt.Errorf("domains: domain %d: global machine %d belongs to two domains", d, m)
			}
			claimed[m] = true
			first[m+1] = len(local.GPUsOfMachine(k))
		}
	}
	for m := 0; m < total; m++ {
		first[m+1] += first[m]
	}
	maps := make([][]int, len(locals))
	for d, local := range locals {
		gm := make([]int, local.NumGPUs())
		identity := true
		for k, m := range machines[d] {
			for i, pos := range local.GPUsOfMachine(k) {
				gm[pos] = first[m] + i
				identity = identity && gm[pos] == pos
			}
		}
		if !identity {
			maps[d] = gm
		}
	}
	return maps, nil
}

// GlobalGPUs translates a placement's local GPU positions through one of
// GPUMaps' maps, preserving order (anti-collocated placements are
// utility-ranked, not sorted). Under the identity the input comes back as
// is; otherwise the result is a fresh slice, so shared records are never
// mutated.
func GlobalGPUs(gmap, gpus []int) []int {
	if gmap == nil || len(gpus) == 0 {
		return gpus
	}
	out := make([]int, len(gpus))
	for i, g := range gpus {
		out[i] = gmap[g]
	}
	return out
}
