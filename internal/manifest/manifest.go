// Package manifest implements the prototype's configuration workflow from
// the paper's artifact appendix: the system runs from a system config
// (etc/configs/sys-config.ini — most importantly the `simulation` switch
// between prototype and simulator mode), one config per scheduling
// algorithm (etc/configs/algo-name-config.ini — "if many are provided,
// the system will execute multiple runs"), and a stream of JSON job
// manifests ("the program continuously loads JSON files containing the
// necessary information about the submitted jobs", §5.1). We use JSON for
// all three so an experiment is a single declarative document.
package manifest

import (
	"encoding/json"
	"fmt"
	"io"

	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/topology"
)

// SystemConfig mirrors etc/configs/sys-config.ini: where to run and how.
type SystemConfig struct {
	// Simulation selects the trace-driven simulator (true) or the
	// iteration-granularity prototype engine (false) — the paper's
	// central config switch.
	Simulation bool `json:"simulation"`
	// Topology names the hardware: "minsky", "dgx1", "pcie" or "cluster".
	Topology string `json:"topology"`
	// Machines sizes a "cluster" topology (ignored otherwise).
	Machines int `json:"machines,omitempty"`
	// Seed drives run-to-run jitter (0 = deterministic, no jitter).
	Seed uint64 `json:"seed,omitempty"`
	// JitterStddev adds relative Gaussian noise to iteration times,
	// emulating the five repeated hardware runs of §3.1.
	JitterStddev float64 `json:"jitter_stddev,omitempty"`
	// SampleInterval enables the bandwidth/utility time series (seconds).
	SampleInterval float64 `json:"sample_interval,omitempty"`
}

// AlgorithmConfig mirrors etc/configs/algo-name-config.ini: one scheduling
// algorithm plus its utility weights.
type AlgorithmConfig struct {
	// Name is the policy: "FCFS", "BF", "TOPO-AWARE" or "TOPO-AWARE-P".
	Name string `json:"name"`
	// AlphaCC, AlphaB, AlphaD are the Eq. 1/2 weights; all zero means
	// the default equal weighting.
	AlphaCC float64 `json:"alpha_cc,omitempty"`
	AlphaB  float64 `json:"alpha_b,omitempty"`
	AlphaD  float64 `json:"alpha_d,omitempty"`
}

// JobManifest is the JSON job description the prototype loads (§5.1).
type JobManifest struct {
	ID         string  `json:"id"`
	Model      string  `json:"model"`
	BatchSize  int     `json:"batch_size"`
	GPUs       int     `json:"gpus"`
	MinUtility float64 `json:"min_utility"`
	Arrival    float64 `json:"arrival"`
	Iterations int     `json:"iterations,omitempty"`
	// CommPattern selects the communication graph: "all-to-all"
	// (default, data parallel), "ring" or "star".
	CommPattern string `json:"comm_pattern,omitempty"`
	// MultiNode permits spanning machines (single-node is the default,
	// matching data-parallel Caffe).
	MultiNode bool `json:"multi_node,omitempty"`
	// AntiCollocate spreads the job's tasks across machines (§4.4).
	AntiCollocate bool `json:"anti_collocate,omitempty"`
	// ModelParallel marks the job as model-parallel (§2): its tasks
	// exchange layer activations instead of gradients.
	ModelParallel bool `json:"model_parallel,omitempty"`
}

// Experiment is a full declarative run: system + algorithms + jobs.
type Experiment struct {
	System     SystemConfig      `json:"system"`
	Algorithms []AlgorithmConfig `json:"algorithms"`
	Jobs       []JobManifest     `json:"jobs"`
}

// Read parses an experiment document.
func Read(r io.Reader) (*Experiment, error) {
	var e Experiment
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// Write serializes an experiment document.
func Write(w io.Writer, e *Experiment) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// Validate checks the experiment for structural problems.
func (e *Experiment) Validate() error {
	if len(e.Algorithms) == 0 {
		return fmt.Errorf("manifest: at least one algorithm config is required")
	}
	if len(e.Jobs) == 0 {
		return fmt.Errorf("manifest: no jobs")
	}
	if _, err := e.BuildTopology(); err != nil {
		return err
	}
	for _, a := range e.Algorithms {
		if _, err := schedcore.ParsePolicy(a.Name); err != nil {
			return err
		}
		if _, err := a.weights(); err != nil {
			return err
		}
	}
	if _, err := e.BuildJobs(); err != nil {
		return err
	}
	return nil
}

// BuildTopology constructs the configured topology.
func (e *Experiment) BuildTopology() (*topology.Topology, error) {
	switch e.System.Topology {
	case "minsky", "":
		return topology.Power8Minsky(), nil
	case "dgx1":
		return topology.DGX1(), nil
	case "pcie":
		return topology.PCIeBox(), nil
	case "cluster":
		n := e.System.Machines
		if n <= 0 {
			return nil, fmt.Errorf("manifest: cluster topology needs machines > 0")
		}
		return topology.Cluster(n, topology.KindMinsky), nil
	default:
		return nil, fmt.Errorf("manifest: unknown topology %q", e.System.Topology)
	}
}

// BuildJobs constructs the submittable jobs from the manifests.
func (e *Experiment) BuildJobs() ([]*job.Job, error) {
	jobs := make([]*job.Job, 0, len(e.Jobs))
	for _, m := range e.Jobs {
		model, err := perfmodel.ParseNN(m.Model)
		if err != nil {
			return nil, fmt.Errorf("manifest job %s: %w", m.ID, err)
		}
		j := job.New(m.ID, model, m.BatchSize, m.GPUs, m.MinUtility, m.Arrival)
		if m.Iterations > 0 {
			j.Iterations = m.Iterations
		}
		j.SingleNode = !m.MultiNode
		j.AntiCollocate = m.AntiCollocate
		if m.ModelParallel {
			j.Parallelism = perfmodel.ModelParallel
		}
		switch m.CommPattern {
		case "", "all-to-all":
			// job.New already built the all-to-all graph.
		case "ring":
			if err := j.SetCommGraph(jobgraph.Ring(m.GPUs, j.Class().CommWeight())); err != nil {
				return nil, err
			}
		case "star":
			if err := j.SetCommGraph(jobgraph.Star(m.GPUs, j.Class().CommWeight())); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("manifest job %s: unknown comm pattern %q", m.ID, m.CommPattern)
		}
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("manifest: %w", err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

func (a AlgorithmConfig) weights() (core.Weights, error) {
	if a.AlphaCC == 0 && a.AlphaB == 0 && a.AlphaD == 0 {
		return core.DefaultWeights(), nil
	}
	w := core.Weights{CommCost: a.AlphaCC, Interference: a.AlphaB, Fragmentation: a.AlphaD}
	if err := w.Validate(); err != nil {
		return core.Weights{}, fmt.Errorf("manifest algorithm %s: %w", a.Name, err)
	}
	return w, nil
}

// RunResult pairs an algorithm config with its outcome.
type RunResult struct {
	Algorithm AlgorithmConfig
	Result    *simulator.Result
	// Bandwidth is populated in prototype mode.
	Bandwidth map[string][]simulator.BandwidthPoint
}

// Run executes the experiment: one run per algorithm config, prototype or
// simulator mode per the system config — the paper's `python main.py`.
func (e *Experiment) Run() ([]RunResult, error) {
	topo, err := e.BuildTopology()
	if err != nil {
		return nil, err
	}
	var out []RunResult
	for _, a := range e.Algorithms {
		policy, err := schedcore.ParsePolicy(a.Name)
		if err != nil {
			return nil, err
		}
		w, err := a.weights()
		if err != nil {
			return nil, err
		}
		jobs, err := e.BuildJobs()
		if err != nil {
			return nil, err
		}
		rr := RunResult{Algorithm: a}
		if e.System.Simulation {
			res, err := simulator.Run(simulator.Config{
				Topology:       topo,
				Policy:         policy,
				Weights:        w,
				Seed:           e.System.Seed,
				JitterStddev:   e.System.JitterStddev,
				SampleInterval: e.System.SampleInterval,
			}, jobs)
			if err != nil {
				return nil, fmt.Errorf("manifest run %s: %w", a.Name, err)
			}
			rr.Result = res
		} else {
			res, err := simulator.RunPrototype(simulator.PrototypeConfig{
				Topology:     topo,
				Policy:       policy,
				Weights:      w,
				Seed:         e.System.Seed,
				JitterStddev: e.System.JitterStddev,
			}, jobs)
			if err != nil {
				return nil, fmt.Errorf("manifest run %s: %w", a.Name, err)
			}
			rr.Result = &res.Result
			rr.Bandwidth = res.Bandwidth
		}
		out = append(out, rr)
	}
	return out, nil
}
