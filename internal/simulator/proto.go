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

// protoJob is the prototype's record of a launched job, in its allocation
// slot.
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
	e, err := newProtoEngine(cfg, jobs)
	if err != nil {
		return nil, err
	}
	if err := e.loop(len(jobs)); err != nil {
		return nil, err
	}
	res := e.res // a copy: the result must not keep the engine alive
	res.Policy, res.SchedStats = e.cfg.Policy, e.scheduler.Stats()
	res.order()
	return &res, nil
}

// newProtoEngine builds the engine that runs the jobs under cfg.
func newProtoEngine(cfg PrototypeConfig, jobs []*job.Job) (*protoEngine, error) {
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
		// Slots stay below the GPU count, as in Run.
		running: make([]protoJob, sim.Topology.NumGPUs()),
		res:     PrototypeResult{Bandwidth: map[string][]BandwidthPoint{}},
	}
	if err := e.events.queueArrivals(jobs); err != nil {
		return nil, err
	}
	// Every job finishes once and spans at least one interval.
	e.res.Jobs = make([]JobResult, 0, len(jobs))
	e.res.Timeline = make([]Interval, 0, len(jobs))
	return e, nil
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
	running   []protoJob      // allocation slot -> the job running there
	res       PrototypeResult // jobs and timeline in finish order, the makespan, the bandwidth series
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
			r := &e.running[ev.slot]
			e.accountIteration(r)
			r.remaining--
			if r.remaining == 0 {
				if err := e.finish(ev.slot); err != nil {
					return err
				}
				if err := e.runScheduler(); err != nil {
					return err
				}
			} else {
				e.armIteration(ev.slot)
			}
		}
	}
	if n := len(e.res.Jobs); n != total {
		return fmt.Errorf("simulator: prototype finished only %d of %d jobs", n, total)
	}
	return nil
}

func (e *protoEngine) runScheduler() error {
	decisions := e.scheduler.Schedule()
	if err := e.scheduler.Fault(); err != nil {
		return err
	}
	for _, d := range decisions {
		if d.Postponed {
			continue
		}
		j := d.Job
		if err := e.launched.Allocate(j.ID, d.Placement.GPUs, d.Placement.BusDemand, j.Traits()); err != nil {
			return err
		}
		spec := perfmodel.GetSpec(j.Model)
		e.running[d.Slot] = protoJob{
			placed:    placedBy(d),
			alloc:     e.launched.Allocation(j.ID),
			remaining: j.Iterations,
			start:     e.now,
			baseIter:  perfmodel.IterationTimeMode(j.Model, j.BatchSize, e.cfg.Topology, d.Placement.GPUs, computeScale, j.Parallelism),
			iterBytes: perfmodel.RingVolume(j.Model, len(d.Placement.GPUs)) + float64(j.BatchSize)*spec.InputBytesPerSample,
		}
		e.armIteration(d.Slot)
	}
	return nil
}

// armIteration schedules the end of the next iteration of the job in the
// slot, whose duration reflects the co-location interference at its
// start — the same cluster.State.Slowdown the trace-driven simulator rates
// jobs by, over the jobs launched so far.
func (e *protoEngine) armIteration(slot int32) {
	r := &e.running[slot]
	d := jitter(e.rng, e.cfg.JitterStddev, r.baseIter*(1+e.launched.Slowdown(r.alloc)))
	e.events.arm(slot, e.now+d)
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

// finish completes the job in the slot and writes its bandwidth series.
// Big batches complete fewer than one iteration per window; windows
// without a completion are genuine zero-usage samples and appear in the
// series (Figure 5's low plateaus).
func (e *protoEngine) finish(slot int32) error {
	r := &e.running[slot]
	if err := e.scheduler.Release(r.job.ID); err != nil {
		return err
	}
	if err := e.launched.Release(r.job.ID); err != nil {
		return err
	}
	e.res.Makespan = max(e.res.Makespan, e.now)
	e.res.Jobs = append(e.res.Jobs, r.result(e.cfg.Topology, r.start, e.now, 0))
	e.res.Timeline = append(e.res.Timeline, r.interval(r.start, e.now))
	pts := make([]BandwidthPoint, len(r.wins))
	for k, bytes := range r.wins {
		pts[k] = BandwidthPoint{
			Time: float64(r.firstWin+k) * windowSize,
			GBs:  bytes / windowSize / 1e9,
		}
	}
	e.res.Bandwidth[r.job.ID] = pts
	return nil
}
