// Package gputopo is a Go implementation of the topology-aware GPU
// scheduler for deep-learning workloads described in
//
//	Amaral, Polo, Carrera, Seelam, Steinder.
//	"Topology-Aware GPU Scheduling for Learning Workloads in Cloud
//	Environments." SC17. DOI 10.1145/3126908.3126933.
//
// The library models multi-GPU system topologies (IBM Power8 "Minsky",
// NVIDIA DGX-1, PCIe boxes, and clusters thereof), represents jobs as
// communication graphs, and places jobs onto GPUs with a Dual Recursive
// Bi-partitioning mapper driven by a utility function combining
// communication cost, predicted co-location interference, and resource
// fragmentation. Two topology-aware scheduling policies (TOPO-AWARE and
// TOPO-AWARE-P) are provided next to the FCFS and Best-Fit baselines, and
// two execution engines reproduce the paper's evaluation: an
// iteration-granularity prototype emulator and a trace-driven cluster
// simulator.
//
// # Quick start
//
//	topo := gputopo.NewPower8Minsky()
//	jobs := []*gputopo.Job{
//		gputopo.NewJob("j0", gputopo.AlexNet, 4, 2, 0.5, 0),
//	}
//	res, err := gputopo.Simulate(gputopo.SimConfig{
//		Topology: topo,
//		Policy:   gputopo.TopoAwareP,
//	}, jobs)
//
// See the examples/ directory for complete programs and
// docs/reproducing-the-paper.md for how to regenerate every reproduced
// table and figure.
package gputopo

import (
	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/topology"
	"gputopo/internal/workload"
)

// Re-exported core types. The internal packages carry the implementation;
// this facade is the supported public API.
type (
	// Topology is a physical GPU system topology graph (§4.1.2).
	Topology = topology.Topology
	// Job is a deep-learning training job to schedule.
	Job = job.Job
	// Placement is a scored GPU allocation.
	Placement = core.Placement
	// Weights are the utility/objective α coefficients.
	Weights = core.Weights
	// Policy is a scheduling policy.
	Policy = schedcore.Policy
	// NN identifies a neural network model.
	NN = perfmodel.NN
	// BatchClass buckets batch sizes (tiny/small/medium/big).
	BatchClass = jobgraph.BatchClass
	// ProfileStore holds per-workload-class performance profiles (§4.2).
	ProfileStore = profile.Store
	// SimConfig parameterizes the trace-driven simulator.
	SimConfig = simulator.Config
	// SimResult is a simulation outcome with per-job metrics.
	SimResult = simulator.Result
	// JobResult is the outcome of a single job.
	JobResult = simulator.JobResult
	// PrototypeConfig parameterizes the iteration-level prototype engine.
	PrototypeConfig = simulator.PrototypeConfig
	// PrototypeResult extends SimResult with bandwidth time series.
	PrototypeResult = simulator.PrototypeResult
	// WorkloadConfig parameterizes the random workload generator.
	WorkloadConfig = workload.GenConfig
)

// Scheduling policies (§5.2).
const (
	FCFS       = schedcore.FCFS
	BestFit    = schedcore.BestFit
	TopoAware  = schedcore.TopoAware
	TopoAwareP = schedcore.TopoAwareP
)

// Neural network models (§2).
const (
	AlexNet   = perfmodel.AlexNet
	CaffeRef  = perfmodel.CaffeRef
	GoogLeNet = perfmodel.GoogLeNet
)

// Batch classes (§5.3).
const (
	BatchTiny   = jobgraph.BatchTiny
	BatchSmall  = jobgraph.BatchSmall
	BatchMedium = jobgraph.BatchMedium
	BatchBig    = jobgraph.BatchBig
)

// NewPower8Minsky builds the paper's testbed machine: 2 sockets × 2 P100
// GPUs, dual NVLink (§3.1, Figure 1).
func NewPower8Minsky() *Topology { return topology.Power8Minsky() }

// NewDGX1 builds the NVIDIA DGX-1 hybrid cube-mesh topology (Figure 1).
func NewDGX1() *Topology { return topology.DGX1() }

// NewPCIeBox builds the PCIe-Gen3/K80 comparison machine (§3.2).
func NewPCIeBox() *Topology { return topology.PCIeBox() }

// NewMinskyCluster builds a homogeneous cluster of n Minsky machines
// joined by a network, as simulated in §5.5.
func NewMinskyCluster(n int) *Topology { return topology.Cluster(n, topology.KindMinsky) }

// DiscoverTopology parses an `nvidia-smi topo --matrix`-style connectivity
// matrix into a machine topology, reproducing the prototype's startup
// discovery (§5.1).
func DiscoverTopology(matrix string) (*Topology, error) { return topology.ParseMatrix(matrix) }

// NewJob creates a data-parallel training job: model, per-GPU batch size,
// GPU count, minimum placement utility (SLO), and arrival time in seconds.
func NewJob(id string, model NN, batchSize, gpus int, minUtility, arrival float64) *Job {
	return job.New(id, model, batchSize, gpus, minUtility, arrival)
}

// DefaultWeights returns the equal α weighting of §5.2.1.
func DefaultWeights() Weights { return core.DefaultWeights() }

// GenerateProfiles builds the profile store of §4.2: the interference
// sensitivity and pressure of every data-parallel workload class of up to
// maxGPUs GPUs. The values do not depend on the topology.
func GenerateProfiles(topo *Topology, maxGPUs int) *ProfileStore {
	return profile.Generate(topo, maxGPUs)
}

// Simulate runs the trace-driven simulator over the job stream.
func Simulate(cfg SimConfig, jobs []*Job) (*SimResult, error) {
	return simulator.Run(cfg, jobs)
}

// RunPrototype executes the job stream at iteration granularity with
// bandwidth accounting — the in-process equivalent of the paper's Power8
// prototype (§5.1).
func RunPrototype(cfg PrototypeConfig, jobs []*Job) (*PrototypeResult, error) {
	return simulator.RunPrototype(cfg, jobs)
}

// Table1Workload returns the six-job prototype scenario of Table 1.
func Table1Workload() []*Job { return workload.Table1() }

// GenerateWorkload produces the randomized §5.3 job stream (Poisson
// arrivals, Binomial batch/model mixes).
func GenerateWorkload(cfg WorkloadConfig, topo *Topology) ([]*Job, error) {
	return workload.Generate(cfg, topo)
}

// AllPolicies lists every scheduling policy in the paper's presentation
// order (BF, FCFS, TOPO-AWARE, TOPO-AWARE-P).
func AllPolicies() []Policy { return schedcore.AllPolicies() }
