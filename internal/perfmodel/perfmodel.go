// Package perfmodel is the analytic stand-in for Caffe training on real
// GPUs. The paper measures AlexNet, CaffeRef and GoogLeNet on a Power8
// "Minsky" with P100s (§3); we have no such testbed, so this package
// reproduces the measured *relationships* with a calibrated iteration-time
// model:
//
//	T_iter = T_comp(batch) + T_comm(placement)
//	T_comp = base + perSample·batch                      (GPU compute)
//	T_comm = overhead + ringVolume / (η·BW_eff)          (gradient exchange)
//
// ringVolume is the classic ring all-reduce transfer volume
// 2·(g−1)/g·gradientBytes, BW_eff is the bottleneck bandwidth of the
// allocated GPUs' communication paths (divided by the topology's routing
// penalty when the path is not peer-to-peer), and η is the fraction of
// nominal link bandwidth the communication library achieves.
//
// Calibration targets (`topobench -fig 3|4|pcie` prints the resulting fits):
//   - Fig. 3: AlexNet compute ≈1 s per 40 iterations at batch 1, ≈66 s at
//     batch 128, communication ≈2 s flat across batch sizes.
//   - Fig. 4: pack-vs-spread speedup ≈1.30x at batch 1–2 decaying to ≈1.0
//     for batch ≥16; GoogLeNet nearly flat (its Inception modules shrink
//     layer outputs, so it ships only ≈28 MB of gradients).
//   - §3.2: on the PCIe/K80 machine the speedup drops to ≈1.24/1.21/1.1
//     at batch 1/2/8.
//   - Fig. 6: co-location slowdown ≈30 % (tiny+tiny), ≈24 % (big causer,
//     tiny sufferer), ≈21 % (big causer, small sufferer), ≈0 (big+big).
package perfmodel

import (
	"fmt"
	"math"

	"gputopo/internal/jobgraph"
	"gputopo/internal/topology"
)

// NN identifies one of the paper's neural network models (§2).
type NN int

// The three Caffe models evaluated in the paper.
const (
	AlexNet NN = iota
	CaffeRef
	GoogLeNet
)

// NumNN is the number of supported models.
const NumNN = 3

// String returns the model name as used in the paper's figures.
func (n NN) String() string {
	switch n {
	case AlexNet:
		return "AlexNet"
	case CaffeRef:
		return "CaffeRef"
	case GoogLeNet:
		return "GoogLeNet"
	default:
		return fmt.Sprintf("NN(%d)", int(n))
	}
}

// ParseNN maps a model name to its NN constant.
func ParseNN(name string) (NN, error) {
	switch name {
	case "AlexNet", "alexnet", "A":
		return AlexNet, nil
	case "CaffeRef", "cafferef", "C":
		return CaffeRef, nil
	case "GoogLeNet", "googlenet", "G":
		return GoogLeNet, nil
	}
	return 0, fmt.Errorf("perfmodel: unknown NN %q", name)
}

// Spec holds the calibrated per-model constants.
type Spec struct {
	Name string
	// Params is the parameter count; GradBytes = 4·Params (FP32).
	Params int64
	// GradBytes is the gradient volume exchanged per iteration (bytes).
	GradBytes float64
	// CompBase and CompPerSample define per-iteration compute time in
	// seconds: CompBase + CompPerSample·batch.
	CompBase      float64
	CompPerSample float64
	// CommOverhead is the per-iteration synchronization/launch cost of
	// the gradient exchange in seconds, independent of the path. The
	// paper's flat ≈2 s/40-iteration communication time implies this
	// constant dominates the volume term on NVLink.
	CommOverhead float64
	// InputBytesPerSample is the host-to-GPU input volume per sample
	// (ImageNet-sized images, ≈618 KB each).
	InputBytesPerSample float64
	// HostOverhead is the per-iteration host-side time (input staging,
	// solver bookkeeping) in seconds.
	HostOverhead float64
}

// ProtocolEfficiency is the fraction of nominal link bandwidth achieved by
// the gradient-exchange protocol (NCCL-style ring).
const ProtocolEfficiency = 0.85

// K80ComputeScale inflates compute time on the PCIe/K80 comparison machine
// of §3.2 (K80s are roughly 1.6x slower than P100s on these models).
const K80ComputeScale = 1.6

var specs = [NumNN]Spec{
	AlexNet: {
		Name:                "AlexNet",
		Params:              61_000_000,
		GradBytes:           244e6,
		CompBase:            0.0122,
		CompPerSample:       0.0128,
		CommOverhead:        0.0428,
		InputBytesPerSample: 618e3,
		HostOverhead:        0.003,
	},
	CaffeRef: {
		Name:                "CaffeRef",
		Params:              62_000_000,
		GradBytes:           233e6,
		CompBase:            0.014,
		CompPerSample:       0.011,
		CommOverhead:        0.055,
		InputBytesPerSample: 618e3,
		HostOverhead:        0.003,
	},
	GoogLeNet: {
		Name:                "GoogLeNet",
		Params:              7_000_000,
		GradBytes:           28e6,
		CompBase:            0.060,
		CompPerSample:       0.020,
		CommOverhead:        0.020,
		InputBytesPerSample: 618e3,
		HostOverhead:        0.003,
	},
}

// GetSpec returns the calibrated constants of the model.
func GetSpec(n NN) Spec { return specs[n] }

// ComputeTime returns the per-iteration GPU compute time in seconds for
// the given per-GPU batch size.
func ComputeTime(n NN, batch int) float64 {
	s := specs[n]
	return s.CompBase + s.CompPerSample*float64(batch)
}

// RingVolume returns the per-GPU bytes exchanged by a ring all-reduce of
// the model's gradients across g GPUs: 2·(g−1)/g·GradBytes.
func RingVolume(n NN, gpus int) float64 {
	if gpus < 2 {
		return 0
	}
	g := float64(gpus)
	return 2 * (g - 1) / g * specs[n].GradBytes
}

// CommTime returns the per-iteration gradient-exchange time in seconds for
// g GPUs over an effective path bandwidth of effBW GB/s (already including
// any routing penalty). Single-GPU jobs communicate nothing.
func CommTime(n NN, gpus int, effBW float64) float64 {
	if gpus < 2 {
		return 0
	}
	if effBW <= 0 {
		return math.Inf(1)
	}
	s := specs[n]
	return s.CommOverhead + RingVolume(n, gpus)/(ProtocolEfficiency*effBW*1e9)
}

// AllocBandwidth returns the effective GPU-to-GPU bandwidth (GB/s) of an
// allocation: the minimum effective pairwise bandwidth over all allocated
// GPU pairs, since a synchronous all-reduce advances at the pace of its
// slowest path. For single-GPU allocations it returns +Inf (no exchange).
func AllocBandwidth(topo *topology.Topology, gpus []int) float64 {
	if len(gpus) < 2 {
		return math.Inf(1)
	}
	bw := math.Inf(1)
	for i := 0; i < len(gpus); i++ {
		for j := i + 1; j < len(gpus); j++ {
			if e := topo.EffectiveBandwidth(gpus[i], gpus[j]); e < bw {
				bw = e
			}
		}
	}
	return bw
}

// IterationTime returns the solo per-iteration time in seconds of the
// model trained with the given per-GPU batch on the allocated GPUs.
// computeScale inflates compute time for slower GPU generations (1.0 for
// P100s, K80ComputeScale for the PCIe box).
func IterationTime(n NN, batch int, topo *topology.Topology, gpus []int, computeScale float64) float64 {
	if computeScale <= 0 {
		computeScale = 1
	}
	s := specs[n]
	t := computeScale*ComputeTime(n, batch) + s.HostOverhead
	if len(gpus) >= 2 {
		t += CommTime(n, len(gpus), AllocBandwidth(topo, gpus))
	}
	return t
}

// Breakdown reports the compute and communication fractions of an
// iteration (Figure 3): fractions of total iteration time spent in GPU
// compute and in gradient exchange.
func Breakdown(n NN, batch int, topo *topology.Topology, gpus []int) (computeFrac, commFrac float64) {
	comp := ComputeTime(n, batch) + specs[n].HostOverhead
	comm := 0.0
	if len(gpus) >= 2 {
		comm = CommTime(n, len(gpus), AllocBandwidth(topo, gpus))
	}
	total := comp + comm
	return comp / total, comm / total
}

// PackSpreadSpeedup returns the ratio of spread (cross-socket) to pack
// (same-socket) iteration time for a 2-GPU job on a two-socket machine —
// the quantity plotted in Figure 4. Values above 1 mean pack wins.
func PackSpreadSpeedup(n NN, batch int, topo *topology.Topology, computeScale float64) float64 {
	packGPUs, spreadGPUs := packSpreadPairs(topo)
	pack := IterationTime(n, batch, topo, packGPUs, computeScale)
	spread := IterationTime(n, batch, topo, spreadGPUs, computeScale)
	return spread / pack
}

// packSpreadPairs picks a same-socket GPU pair and a cross-socket pair on
// machine 0 of the topology.
func packSpreadPairs(topo *topology.Topology) (pack, spread []int) {
	sockets := topo.Sockets(0)
	if len(sockets) < 2 {
		all := topo.GPUsOfMachine(0)
		return all[:2], all[:2]
	}
	s0 := topo.GPUsOfSocket(0, sockets[0])
	s1 := topo.GPUsOfSocket(0, sockets[1])
	return []int{s0[0], s0[1]}, []int{s0[0], s1[0]}
}

// AverageLinkUsage returns the average GPU-interconnect traffic in GB/s
// generated by the job: bytes moved per iteration (gradients plus input
// staging) divided by the iteration time. Figure 5 plots this usage over
// time; tiny batches sustain high usage because they communicate every few
// milliseconds, while big batches spend most of each iteration computing.
func AverageLinkUsage(n NN, batch int, topo *topology.Topology, gpus []int) float64 {
	s := specs[n]
	iter := IterationTime(n, batch, topo, gpus, 1)
	bytes := RingVolume(n, len(gpus)) + float64(batch)*s.InputBytesPerSample
	return bytes / iter / 1e9
}

// BusDemand estimates the shared-bus bandwidth (GB/s) a running job
// commits on its machine: the gradient traffic that crosses sockets plus
// input staging. Used for the t_bw <= p_bw capacity constraint.
func BusDemand(n NN, batch int, topo *topology.Topology, gpus []int) float64 {
	s := specs[n]
	iter := IterationTime(n, batch, topo, gpus, 1)
	input := float64(batch) * s.InputBytesPerSample * float64(len(gpus))
	cross := 0.0
	for i := 0; i < len(gpus); i++ {
		for j := i + 1; j < len(gpus); j++ {
			if !topo.P2P(gpus[i], gpus[j]) {
				cross = RingVolume(n, len(gpus))
				break
			}
		}
	}
	return (input + cross) / iter / 1e9
}

// Locality describes how two co-scheduled jobs share hardware, for the
// interference model.
type Locality int

// Co-location localities in decreasing degree of sharing.
const (
	SameSocket Locality = iota
	SameMachine
	DifferentMachine
)

// LocalityFactor scales interference: jobs sharing a socket contend for
// the CPU-GPU links and local DRAM (2x the cross-socket baseline), jobs on
// the same machine share the X-Bus and memory subsystem (the Figure 6
// calibration point), and jobs on different machines do not interfere.
func LocalityFactor(l Locality) float64 {
	switch l {
	case SameSocket:
		return 2.0
	case SameMachine:
		return 1.0
	default:
		return 0
	}
}

// sensitivity is how strongly a job of the given batch class suffers from
// bandwidth perturbation (calibrated to Figure 6: tiny jobs communicate
// constantly, big jobs barely notice).
var sensitivity = [4]float64{1.0, 0.875, 0.45, 0.05}

// pressure is how much perturbation a job of the given batch class causes
// to machine-level shared resources.
var pressure = [4]float64{0.30, 0.28, 0.26, 0.24}

// Traits summarizes the interference-relevant properties of a job.
type Traits struct {
	Model NN
	Class jobgraph.BatchClass
	GPUs  int
	// Mode distinguishes data- from model-parallel jobs; the latter
	// interfere more (continuous activation traffic, §2).
	Mode Parallelism
}

// scale halves both caused and suffered interference for single-GPU jobs:
// with no gradient exchange their bus traffic is input staging only.
func (t Traits) scale() float64 {
	if t.GPUs <= 1 {
		return 0.5
	}
	return 1
}

// commScale dampens interference for models that barely communicate:
// GoogLeNet's Inception modules shrink exchanged volume ≈9x vs AlexNet.
func (t Traits) commScale() float64 {
	ref := specs[AlexNet].GradBytes
	s := specs[t.Model].GradBytes / ref
	// Compress toward 1 so even low-communication models keep some
	// sensitivity through their input pipelines.
	return 0.5 + 0.5*math.Min(1, s*2.5)
}

// Sensitivity returns how strongly the job suffers co-location
// interference.
func Sensitivity(t Traits) float64 {
	return sensitivity[t.Class] * t.scale() * t.commScale() * modeScale(t.Mode)
}

// Pressure returns how much interference the job causes.
func Pressure(t Traits) float64 {
	return pressure[t.Class] * t.scale() * t.commScale() * modeScale(t.Mode)
}

// CoLocationSlowdown returns the fractional slowdown (0 = none, 0.30 = 30%
// slower) the victim job suffers from one co-scheduled job at the given
// locality. Multiple co-runners accumulate additively; callers should cap
// the total with CapSlowdown.
func CoLocationSlowdown(victim, other Traits, l Locality) float64 {
	return Sensitivity(victim) * Pressure(other) * LocalityFactor(l)
}

// MaxSlowdown caps the accumulated co-location slowdown: beyond ~1.5x the
// shared buses are saturated and additional co-runners queue rather than
// steal proportionally more bandwidth.
const MaxSlowdown = 1.5

// CapSlowdown clamps an accumulated slowdown sum to MaxSlowdown.
func CapSlowdown(sum float64) float64 {
	if sum > MaxSlowdown {
		return MaxSlowdown
	}
	return sum
}

// DefaultIterations is the paper's training length for the prototype
// experiments (§3.1: "the maximum number of iterations is 4000").
const DefaultIterations = 4000
