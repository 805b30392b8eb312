// The ring all-reduce simulator these tests hold package perfmodel to.
// Data-parallel deep-learning frameworks exchange gradients with a ring
// all-reduce (§2 of the paper cites Wang et al., "Efficient Communications
// in Training Large Scale Neural Networks", for the shared communication
// structure of Caffe/NCCL-style frameworks). This file gives the
// step/volume arithmetic behind the model's ring factor 2·(g−1)/g and a
// chunk-level timing simulation over a physical topology, used to check
// that the analytic CommTime is a faithful summary. Only the tests read
// it, so it is test code: the package ships nothing.

package allreduce

import (
	"fmt"
	"math"

	"gputopo/internal/topology"
)

// Steps returns the number of communication steps of a ring all-reduce
// over g participants: g−1 reduce-scatter steps plus g−1 all-gather steps.
func Steps(g int) int {
	if g < 2 {
		return 0
	}
	return 2 * (g - 1)
}

// PerGPUVolume returns the bytes each participant sends in total:
// 2·(g−1)/g · payload.
func PerGPUVolume(payload float64, g int) float64 {
	if g < 2 {
		return 0
	}
	return 2 * float64(g-1) / float64(g) * payload
}

// RingOrder arranges the given GPU positions into a communication ring
// maximizing the bottleneck (minimum) effective bandwidth between ring
// neighbors. For the at-most-8-GPU rings of single machines a greedy
// nearest-neighbor construction from every start, keeping the best ring,
// matches the optimum (verified against brute force in tests).
func RingOrder(topo *topology.Topology, gpus []int) []int {
	g := len(gpus)
	if g <= 2 {
		return append([]int(nil), gpus...)
	}
	var best []int
	bestBW := -1.0
	for start := 0; start < g; start++ {
		order := []int{gpus[start]}
		used := map[int]bool{gpus[start]: true}
		for len(order) < g {
			last := order[len(order)-1]
			cand, candBW := -1, -1.0
			for _, v := range gpus {
				if used[v] {
					continue
				}
				if bw := topo.EffectiveBandwidth(last, v); bw > candBW {
					cand, candBW = v, bw
				}
			}
			order = append(order, cand)
			used[cand] = true
		}
		if bw := ringBottleneck(topo, order); bw > bestBW {
			bestBW, best = bw, order
		}
	}
	return best
}

// ringBottleneck returns the minimum effective bandwidth between adjacent
// ring members (including the wrap-around edge).
func ringBottleneck(topo *topology.Topology, order []int) float64 {
	bw := math.Inf(1)
	for i := range order {
		next := order[(i+1)%len(order)]
		if e := topo.EffectiveBandwidth(order[i], next); e < bw {
			bw = e
		}
	}
	return bw
}

// Result describes one simulated all-reduce.
type Result struct {
	// Time is the wall-clock duration in seconds.
	Time float64
	// Order is the ring arrangement used.
	Order []int
	// BottleneckBW is the slowest ring link's effective bandwidth (GB/s).
	BottleneckBW float64
	// Steps is the number of communication steps executed.
	Steps int
}

// Simulate runs a chunked ring all-reduce of payload bytes across the
// given GPUs at the given protocol efficiency (fraction of nominal link
// bandwidth achieved) with a per-step latency in seconds. Every step moves
// payload/g bytes between all neighbor pairs simultaneously; the step
// completes at the pace of the slowest link, which is how a synchronous
// ring behaves.
func Simulate(topo *topology.Topology, gpus []int, payload, efficiency, stepLatency float64) (*Result, error) {
	if len(gpus) < 2 {
		return &Result{Order: append([]int(nil), gpus...)}, nil
	}
	if payload <= 0 {
		return nil, fmt.Errorf("allreduce: non-positive payload %v", payload)
	}
	if efficiency <= 0 || efficiency > 1 {
		return nil, fmt.Errorf("allreduce: efficiency %v outside (0, 1]", efficiency)
	}
	order := RingOrder(topo, gpus)
	bw := ringBottleneck(topo, order)
	if bw <= 0 || math.IsInf(bw, 1) {
		return nil, fmt.Errorf("allreduce: ring over %v has no usable bandwidth", gpus)
	}
	g := len(gpus)
	chunk := payload / float64(g)
	stepTime := stepLatency + chunk/(efficiency*bw*1e9)
	return &Result{
		Time:         float64(Steps(g)) * stepTime,
		Order:        order,
		BottleneckBW: bw,
		Steps:        Steps(g),
	}, nil
}
