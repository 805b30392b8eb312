package simulator

import (
	"fmt"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/stats"
	"gputopo/internal/topology"
)

// PrototypeConfig parameterizes a prototype run.
type PrototypeConfig struct {
	Topology *topology.Topology
	Policy   schedcore.Policy
	Weights  core.Weights
	Profiles *profile.Store
	// JitterStddev perturbs each iteration's duration (relative Gaussian),
	// reproducing run-to-run variability; 0 disables.
	JitterStddev float64
	Seed         uint64
}

// BandwidthPoint is one sampling window of a job's interconnect usage.
type BandwidthPoint struct {
	Time float64 // window start (s)
	GBs  float64 // average GB/s over the window
}

// PrototypeResult extends the simulator's result model with per-job
// bandwidth series — the prototype's nvidia-smi nvlink measurements.
type PrototypeResult struct {
	Result
	// Bandwidth maps job ID to its interconnect usage time series.
	Bandwidth map[string][]BandwidthPoint
}

// protoJob is the prototype's record of a launched job, in its rank slot.
type protoJob struct {
	placed
	alloc     *cluster.Allocation // its row in protoEngine.launched
	remaining int                 // iterations left
	start     float64
	baseIter  float64
	iterBytes float64 // bytes moved over the interconnect per iteration
	// wins holds the bytes credited to each sampling window from
	// firstWin, the window of the job's first completed iteration, to the
	// latest one: iterations complete in time order, so the windows a job
	// touches are one dense run.
	firstWin int
	wins     []float64
}

// windowSize is the bandwidth sampling window in seconds, the nvidia-smi
// polling period of §5.1.
const windowSize = 1.0

// RunPrototype executes the jobs at iteration granularity: each
// iteration's duration is drawn from the performance model under the
// contention present when the iteration starts, and the bytes it moves
// over the GPU interconnect are accumulated into fixed sampling windows to
// produce the NVLink bandwidth time series of Figures 5 and 8. Run models
// the same jobs with continuous rates; the two agree up to
// iteration-boundary effects, "acceptable when considering the standard
// deviations" (§5.4).
func RunPrototype(cfg PrototypeConfig, jobs []*job.Job) (*PrototypeResult, error) {
	sim := Config{
		Topology:     cfg.Topology,
		Policy:       cfg.Policy,
		Weights:      cfg.Weights,
		Profiles:     cfg.Profiles,
		JitterStddev: cfg.JitterStddev,
		Seed:         cfg.Seed,
	}
	scheduler, err := newCore(&sim)
	if err != nil {
		return nil, err
	}
	e := &protoEngine{
		cfg:       sim,
		launched:  cluster.NewState(sim.Topology),
		scheduler: scheduler,
		rng:       stats.NewRNG(sim.Seed),
	}
	if e.rank, err = e.events.queueArrivals(jobs); err != nil {
		return nil, err
	}
	// Every job finishes once and spans at least one interval.
	e.jobs = make([]protoJob, len(jobs))
	e.results = make([]JobResult, len(jobs))
	e.timeline = make([]Interval, 0, len(jobs))
	if err := e.loop(len(jobs)); err != nil {
		return nil, err
	}

	res := &PrototypeResult{
		Result: Result{
			Policy:     sim.Policy,
			Jobs:       e.results,
			Makespan:   e.makespan,
			Timeline:   e.timeline,
			SchedStats: scheduler.Stats(),
		},
		Bandwidth: map[string][]BandwidthPoint{},
	}
	res.orderTimeline()
	for i := range e.jobs {
		r := &e.jobs[i]
		if r.wins == nil {
			continue
		}
		// Big batches complete fewer than one iteration per window;
		// windows without a completion are genuine zero-usage samples
		// and must appear in the series (Figure 5's low plateaus).
		pts := make([]BandwidthPoint, len(r.wins))
		for k, bytes := range r.wins {
			pts[k] = BandwidthPoint{
				Time: float64(r.firstWin+k) * windowSize,
				GBs:  bytes / windowSize / 1e9,
			}
		}
		res.Bandwidth[r.job.ID] = pts
	}
	return res, nil
}

type protoEngine struct {
	cfg Config
	// launched holds the jobs whose processes have started: the core's
	// cluster state, lagging inside a scheduling round. The prototype forks
	// a round's placements one at a time and times each job's first
	// iteration against the co-runners launched before it, so the core's
	// own state — which already holds the whole round — is not the one to
	// ask.
	launched  *cluster.State
	scheduler *schedcore.Core
	events    eventQueue
	now       float64
	rank      map[string]int // job ID -> its slot in jobs and results
	jobs      []protoJob     // one slot per job, in job-ID order
	results   []JobResult    // one slot per job, in job-ID order
	timeline  []Interval
	makespan  float64
	finished  int
	rng       *stats.RNG
}

func (e *protoEngine) loop(total int) error {
	guard := 0
	for {
		ev, ok := e.events.pop()
		if !ok {
			break
		}
		guard++
		if guard > 100_000_000 {
			return fmt.Errorf("simulator: prototype iteration budget exceeded")
		}
		e.now = ev.time
		switch ev.kind {
		case evArrival:
			if err := e.scheduler.Submit(ev.job); err != nil {
				return err
			}
			if err := e.runScheduler(); err != nil {
				return err
			}
		case evFinish: // one iteration's end
			r := &e.jobs[ev.rank]
			e.accountIteration(r)
			r.remaining--
			if r.remaining == 0 {
				if err := e.finish(ev.rank); err != nil {
					return err
				}
				if err := e.runScheduler(); err != nil {
					return err
				}
			} else {
				e.armIteration(ev.rank)
			}
		}
	}
	if e.finished != total {
		return fmt.Errorf("simulator: prototype finished only %d of %d jobs", e.finished, total)
	}
	return nil
}

func (e *protoEngine) runScheduler() error {
	for _, d := range e.scheduler.Schedule() {
		if d.Postponed {
			continue
		}
		j := d.Job
		if err := e.launched.Allocate(j.ID, d.Placement.GPUs, d.Placement.BusDemand, j.Traits()); err != nil {
			return err
		}
		spec := perfmodel.GetSpec(j.Model)
		rank := int32(e.rank[j.ID])
		e.jobs[rank] = protoJob{
			placed:    placedBy(d),
			alloc:     e.launched.Allocation(j.ID),
			remaining: j.Iterations,
			start:     e.now,
			baseIter:  perfmodel.IterationTimeMode(j.Model, j.BatchSize, e.cfg.Topology, d.Placement.GPUs, computeScale, j.Parallelism),
			iterBytes: perfmodel.RingVolume(j.Model, len(d.Placement.GPUs)) + float64(j.BatchSize)*spec.InputBytesPerSample,
		}
		e.armIteration(rank)
	}
	return nil
}

// armIteration schedules the end of the next iteration of the job in the
// rank slot, whose duration reflects the co-location interference at its
// start — the same cluster.State.Slowdown the trace-driven simulator rates
// jobs by, over the jobs launched so far.
func (e *protoEngine) armIteration(rank int32) {
	r := &e.jobs[rank]
	d := jitter(e.rng, e.cfg.JitterStddev, r.baseIter*(1+e.launched.Slowdown(r.alloc)))
	e.events.arm(rank, e.now+d)
}

// accountIteration credits the iteration's interconnect bytes to the
// sampling window containing its completion time, zero-filling the
// windows since the job's last completion.
func (e *protoEngine) accountIteration(r *protoJob) {
	w := int(e.now / windowSize)
	if r.wins == nil {
		r.firstWin = w
	}
	k := w - r.firstWin
	if k >= len(r.wins) {
		r.wins = append(r.wins, make([]float64, k+1-len(r.wins))...)
	}
	r.wins[k] += r.iterBytes
}

// finish completes the job in the rank slot.
func (e *protoEngine) finish(rank int32) error {
	r := &e.jobs[rank]
	if err := e.scheduler.Release(r.job.ID); err != nil {
		return err
	}
	if err := e.launched.Release(r.job.ID); err != nil {
		return err
	}
	e.finished++
	if e.now > e.makespan {
		e.makespan = e.now
	}
	e.results[rank] = r.result(e.cfg.Topology, r.start, e.now, 0)
	e.timeline = append(e.timeline, r.interval(r.start, e.now))
	return nil
}
