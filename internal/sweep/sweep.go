// Package sweep is the concurrent scenario-sweep engine: it expands a
// grid of simulator configurations (policy × cluster size × job count ×
// α-weights × postponement thresholds × seed replicas) into points, fans
// the points across a bounded worker pool, and aggregates the results into
// machine-readable reports (JSON/CSV) with per-cell summary statistics.
//
// Determinism is the load-bearing property: grid expansion is serial and
// derives every point's random seed up front (stats.DeriveSeed), each
// point runs a self-contained simulation on freshly generated inputs, and
// results land in pre-assigned slots. A sweep therefore produces
// byte-identical artifacts whether it runs on one worker or sixteen —
// sweep_test.go asserts exactly that — which is what lets CI compare
// artifacts across commits and lets the experiments package replay paper
// figures through the same machinery.
package sweep

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/stats"
)

// Engine selects the execution engine for a point.
type Engine int

const (
	// EngineSim runs the trace-driven cluster simulator (§5.3).
	EngineSim Engine = iota
	// EngineProto runs the iteration-granularity prototype emulator (§5.1).
	EngineProto
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineSim:
		return "sim"
	case EngineProto:
		return "proto"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// MarshalJSON encodes the engine by name.
func (e Engine) MarshalJSON() ([]byte, error) { return json.Marshal(e.String()) }

// UnmarshalJSON decodes the engine from its name.
func (e *Engine) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "sim":
		*e = EngineSim
	case "proto":
		*e = EngineProto
	default:
		return fmt.Errorf("sweep: unknown engine %q", name)
	}
	return nil
}

// Source selects the workload of a point.
type Source int

const (
	// SourceGenerated draws a random §5.3 stream from the point's seed.
	SourceGenerated Source = iota
	// SourceTable1 replays the fixed six-job prototype scenario (Table 1).
	SourceTable1
	// SourceList replays the grid's explicit JobList.
	SourceList
)

// String names the workload source.
func (s Source) String() string {
	switch s {
	case SourceGenerated:
		return "generated"
	case SourceTable1:
		return "table1"
	case SourceList:
		return "list"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// MarshalJSON encodes the source by name.
func (s Source) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes the source from its name.
func (s *Source) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "generated":
		*s = SourceGenerated
	case "table1":
		*s = SourceTable1
	case "list":
		*s = SourceList
	default:
		return fmt.Errorf("sweep: unknown source %q", name)
	}
	return nil
}

// NoOverride is the sentinel for axes that leave the engine default in
// place (α weights, postponement thresholds).
const NoOverride = -1

// Grid declares a scenario sweep as the cross product of its axes. Slice
// axes left nil default to a single neutral value, so a Grid only spells
// out the dimensions it actually varies.
type Grid struct {
	// Name labels the sweep in reports and artifacts.
	Name string `json:"name"`
	// Engine and Source apply to every point.
	Engine Engine `json:"engine"`
	Source Source `json:"source"`
	// JobList is the workload of SourceList, replayed at every point.
	JobList []ListJob `json:"job_list,omitempty"`
	// Policies defaults to schedcore.AllPolicies().
	Policies []schedcore.Policy `json:"policies,omitempty"`
	// Topologies is the topology axis: each spec names a builder, an
	// optional pinned machine count and optional level-weight overrides.
	// Empty defaults to one zero spec — a Minsky cluster sized by the
	// Machines axis (the legacy behavior).
	Topologies []TopologySpec `json:"topologies,omitempty"`
	// Machines is the cluster-size axis (default {1}; ignored by
	// SourceTable1 and SourceList, which run on one standalone machine,
	// and by topology specs that pin their own machine count).
	Machines []int `json:"machines,omitempty"`
	// Jobs is the workload-size axis (default {0}; ignored by
	// SourceTable1 and SourceList).
	Jobs []int `json:"jobs,omitempty"`
	// AlphasCC is the utility-weight axis: each value αcc gets weights
	// {αcc, (1-αcc)/2, (1-αcc)/2}; NoOverride keeps the engine default.
	AlphasCC []float64 `json:"alphas_cc,omitempty"`
	// Thresholds overrides every multi-GPU job's minimum utility;
	// NoOverride keeps the generated values.
	Thresholds []float64 `json:"thresholds,omitempty"`
	// Domains is the sharded-scheduling axis: each value is a domain spec
	// in domains.Parse syntax ("hash:4", "block:2", "kind"; "" keeps the
	// single-core engine), applied to every topology of the point. Left
	// nil it defaults to the single empty value — locally in Points, like
	// Disciplines, so recorded artifacts stay byte-identical. EngineSim +
	// generated workloads only.
	Domains []string `json:"domains,omitempty"`
	// Disciplines is the queue-discipline axis: "" or "fifo" (the default
	// arrival FIFO), "priority" (priority-then-arrival ordering), or
	// "priority-preempt" (priority ordering plus topology-aware
	// preemption). Left nil it defaults to the single empty value —
	// deliberately NOT filled in by withDefaults, so the Grid embedded in
	// existing artifacts stays byte-identical. EngineSim only.
	Disciplines []string `json:"disciplines,omitempty"`
	// PriorityShare is the fraction of generated jobs tagged Priority 1
	// (workload.GenConfig.HighPriorityShare). 0 keeps the single-class
	// streams every artifact was recorded with.
	PriorityShare float64 `json:"priority_share,omitempty"`
	// Seeds is the replica axis: each seed drives one workload/jitter
	// stream. Leave nil and set Replicas to derive seeds from BaseSeed.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Replicas expands BaseSeed into this many derived seeds when Seeds
	// is nil (default 1 → {BaseSeed}).
	Replicas int    `json:"replicas,omitempty"`
	BaseSeed uint64 `json:"base_seed"`
	// RatePerMachine is the Poisson arrival rate in jobs/minute per
	// machine (scenario 1 pressure is 10 jobs/min on 5 machines = 2);
	// 0 keeps the generator's cluster-wide default of λ = 10.
	RatePerMachine float64 `json:"rate_per_machine,omitempty"`
	// SampleInterval and JitterStddev pass through to the engine config.
	SampleInterval float64 `json:"sample_interval,omitempty"`
	JitterStddev   float64 `json:"jitter_stddev,omitempty"`
}

// withDefaults fills neutral values for unspecified axes.
func (g Grid) withDefaults() Grid {
	if len(g.Policies) == 0 {
		g.Policies = schedcore.AllPolicies()
	}
	if len(g.Topologies) == 0 {
		g.Topologies = []TopologySpec{{}}
	}
	if len(g.Machines) == 0 {
		g.Machines = []int{1}
	}
	if len(g.Jobs) == 0 {
		g.Jobs = []int{0}
	}
	if len(g.AlphasCC) == 0 {
		g.AlphasCC = []float64{NoOverride}
	}
	if len(g.Thresholds) == 0 {
		g.Thresholds = []float64{NoOverride}
	}
	if len(g.Seeds) == 0 {
		n := g.Replicas
		if n <= 0 {
			n = 1
		}
		// Always derive, even for a single replica: replica i's seed must
		// not change when a grid later grows more replicas, or artifacts
		// stop being comparable across sweep configurations.
		g.Seeds = stats.ReplicaSeeds(g.BaseSeed, n)
	}
	return g
}

// Point is one fully resolved simulator configuration of a grid. Every
// field needed to reproduce the run is embedded — including the derived
// seed — so execution order cannot influence the result.
type Point struct {
	Index     int              `json:"index"`
	Engine    Engine           `json:"engine"`
	Source    Source           `json:"source"`
	Policy    schedcore.Policy `json:"policy"`
	Topology  TopologySpec     `json:"topology"`
	Machines  int              `json:"machines"`
	Jobs      int              `json:"jobs"`
	AlphaCC   float64          `json:"alpha_cc"`
	Threshold float64          `json:"threshold"`
	Replica   int              `json:"replica"`
	Seed      uint64           `json:"seed"`
	// Discipline is the queue-discipline axis value; empty (the default
	// FIFO) is omitted so pre-discipline artifacts parse and re-serialize
	// unchanged.
	Discipline string `json:"discipline,omitempty"`

	grid Grid // expansion-time copy, for the default runner
}

// cellKey identifies the aggregation cell of a point: every axis except
// the seed replica. Replicas of one cell are summarized together. The
// discipline suffix appears only when the axis is in play.
func (p Point) cellKey() string {
	k := fmt.Sprintf("%s/%s/%s/%s/m%d/j%d/a%g/t%g",
		p.Engine, p.Source, p.Policy, p.Topology.Key(), p.Machines, p.Jobs, p.AlphaCC, p.Threshold)
	if p.Discipline != "" {
		k += "/d" + p.Discipline
	}
	return k
}

// Points expands the grid into its cross product. Expansion is serial and
// deterministic: point i of a given grid is always the same configuration
// with the same seed. Topologies vary outermost; policies vary innermost
// so the points comparing policies on one workload sit next to each other
// in reports. A point's Machines field records the effective machine
// count: the topology spec's pinned count when set, else the Machines-axis
// value.
func (g Grid) Points() []Point {
	g = g.withDefaults()
	// The discipline axis defaults locally rather than in withDefaults:
	// the Report embeds the defaulted Grid, so a global default would
	// rewrite the Grid section of every existing golden artifact.
	discs := g.Disciplines
	if len(discs) == 0 {
		discs = []string{""}
	}
	// The domains axis defaults locally for the same reason.
	doms := g.Domains
	if len(doms) == 0 {
		doms = []string{""}
	}
	var pts []Point
	for _, baseTS := range g.Topologies {
		for _, dom := range doms {
			ts := baseTS
			if dom != "" {
				// The axis value rides inside the point's topology spec, so
				// cell keys, CSV columns and the substrate cache pick it up
				// through TopologySpec.Key with no extra plumbing.
				ts.Domains = dom
			}
			for _, m := range g.Machines {
				for _, j := range g.Jobs {
					for _, a := range g.AlphasCC {
						for _, th := range g.Thresholds {
							for rep, seed := range g.Seeds {
								for _, disc := range discs {
									for _, pol := range g.Policies {
										pts = append(pts, Point{
											Index:      len(pts),
											Engine:     g.Engine,
											Source:     g.Source,
											Policy:     pol,
											Topology:   ts,
											Machines:   ts.EffectiveMachines(m),
											Jobs:       j,
											AlphaCC:    a,
											Threshold:  th,
											Replica:    rep,
											Seed:       seed,
											Discipline: disc,
											grid:       g,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pts
}

// RunOutput is the raw engine result of one point. Proto is non-nil only
// for EngineProto points (Sim is always populated: the prototype result
// embeds a simulator.Result).
type RunOutput struct {
	Sim   *simulator.Result
	Proto *simulator.PrototypeResult
}

// Runner executes one point. The default runner covers the grid axes;
// experiments with bespoke per-point setup (e.g. Figure 5's batch-size
// series) supply their own via Options or use ForEach directly.
type Runner func(Point) (*RunOutput, error)

// Options tunes a sweep execution. The zero value runs the default runner
// on one worker per CPU.
type Options struct {
	// Workers bounds the pool; <=0 means runtime.NumCPU().
	Workers int
	// Runner overrides the default point runner.
	Runner Runner
	// Progress, when non-nil, is called after each completed point with
	// the number done so far and the total. Calls are serialized.
	Progress func(done, total int)
}

// ForEach runs fn(0..n-1) across a pool of at most workers goroutines
// (<=0 → NumCPU) and returns the error of the lowest-indexed failure.
// Callers write results into index i of a pre-sized slice, which keeps
// output order — and therefore serialized artifacts — independent of
// scheduling. The first failure stops dispatch: in-flight points finish,
// undispatched ones never start, so an early error on a long sweep does
// not burn the rest of the grid's wall clock.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	errs := make([]error, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !failed.Load(); i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run expands the grid and executes every point across the worker pool,
// returning the aggregated report. The report's serialized form is
// byte-identical for any worker count.
func Run(g Grid, opt Options) (*Report, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g = g.withDefaults()
	points := g.Points()
	runner := opt.Runner
	if runner == nil {
		// The default runner shares one substrate cache across all of this
		// Run's points: a grid's points overwhelmingly reuse a handful of
		// distinct topologies, and both the topology and its profile store
		// are immutable once built (see newSubstrateCache).
		runner = newSubstrateCache().runPoint
	}
	results := make([]PointResult, len(points))
	var mu sync.Mutex
	done := 0
	err := ForEach(len(points), opt.Workers, func(i int) error {
		out, err := runner(points[i])
		if err != nil {
			return fmt.Errorf("sweep %s point %d (%s): %w", g.Name, i, points[i].cellKey(), err)
		}
		results[i] = newPointResult(points[i], out)
		if opt.Progress != nil {
			mu.Lock()
			done++
			opt.Progress(done, len(points))
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Report{
		Grid:    g,
		Points:  results,
		Cells:   summarizeCells(points, results),
		Workers: workers,
	}, nil
}
