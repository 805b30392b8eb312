// Package caffesim plays the role of the paper's prototype (§5.1): it
// executes training jobs at single-iteration granularity, the way the real
// system ran Caffe processes and watched them with nvidia-smi. Each
// iteration's duration is drawn from the performance model under the
// contention present when the iteration starts, and the bytes it moves
// over the GPU interconnect are accumulated into fixed sampling windows to
// produce the NVLink bandwidth time series of Figures 5 and 8.
//
// The trace-driven simulator (package simulator) models the same jobs with
// continuous rates. Running both on one scenario and comparing is the
// validation of §5.4 (Figure 9): results agree up to iteration-boundary
// effects, "acceptable when considering the standard deviations."
package caffesim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/stats"
	"gputopo/internal/topology"
)

// Config parameterizes a prototype run.
type Config struct {
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

// Result extends the simulator's result model with per-job bandwidth
// series — the prototype's nvidia-smi nvlink measurements.
type Result struct {
	simulator.Result
	// Bandwidth maps job ID to its interconnect usage time series.
	Bandwidth map[string][]BandwidthPoint
}

type iterEvent struct {
	time float64
	seq  int
	kind int // 0 = iteration end, 1 = arrival
	id   string
	job  *job.Job
}

type iterHeap []iterEvent

func (h iterHeap) Len() int { return len(h) }
func (h iterHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h iterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *iterHeap) Push(x interface{}) { *h = append(*h, x.(iterEvent)) }
func (h *iterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

type runningJob struct {
	job       *job.Job
	alloc     *cluster.Allocation // its row in protoEngine.launched
	gpus      []int
	remaining int
	start     float64
	utility   float64
	p2p       bool
	violated  bool
	waited    int // scheduling rounds spent queued before placement
	baseIter  float64
	iterBytes float64 // bytes moved over the interconnect per iteration
}

const (
	// computeScale is perfmodel's compute-time inflation: 1 = the
	// P100-class GPUs of the prototype's machines.
	computeScale = 1
	// windowSize is the bandwidth sampling window in seconds, the
	// nvidia-smi polling period of §5.1.
	windowSize = 1.0
)

// Run executes the prototype at iteration granularity.
func Run(cfg Config, jobs []*job.Job) (*Result, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("caffesim: nil topology")
	}
	zero := core.Weights{}
	if cfg.Weights == zero {
		cfg.Weights = core.DefaultWeights()
	}
	if cfg.Profiles == nil {
		cfg.Profiles = profile.Default(cfg.Topology)
	}
	mapper, err := core.NewMapper(cfg.Profiles, cfg.Weights)
	if err != nil {
		return nil, err
	}

	st := cluster.NewState(cfg.Topology)
	scheduler := schedcore.New(cfg.Policy, st, mapper)
	rng := stats.NewRNG(cfg.Seed)

	e := &protoEngine{
		cfg:       cfg,
		launched:  cluster.NewState(cfg.Topology),
		scheduler: scheduler,
		running:   map[string]*runningJob{},
		windows:   map[string]map[int]float64{},
		rng:       rng,
	}
	ids := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		if ids[j.ID] {
			return nil, fmt.Errorf("caffesim: duplicate job ID %q", j.ID)
		}
		ids[j.ID] = true
		heap.Push(&e.events, iterEvent{time: j.Arrival, seq: e.nextSeq(), kind: 1, job: j})
	}
	if err := e.loop(len(jobs)); err != nil {
		return nil, err
	}

	sort.Slice(e.results, func(i, j int) bool { return e.results[i].Job.ID < e.results[j].Job.ID })
	sort.Slice(e.timeline, func(i, j int) bool {
		if e.timeline[i].Start != e.timeline[j].Start {
			return e.timeline[i].Start < e.timeline[j].Start
		}
		return e.timeline[i].JobID < e.timeline[j].JobID
	})

	res := &Result{
		Result: simulator.Result{
			Policy:     cfg.Policy,
			Jobs:       e.results,
			Makespan:   e.makespan,
			Timeline:   e.timeline,
			SchedStats: scheduler.Stats(),
		},
		Bandwidth: map[string][]BandwidthPoint{},
	}
	for id, wins := range e.windows {
		// Big batches complete fewer than one iteration per window;
		// windows without a completion are genuine zero-usage samples
		// and must appear in the series (Figure 5's low plateaus).
		minW, maxW := -1, -1
		for w := range wins {
			if minW == -1 || w < minW {
				minW = w
			}
			if w > maxW {
				maxW = w
			}
		}
		pts := make([]BandwidthPoint, 0, maxW-minW+1)
		for w := minW; w <= maxW; w++ {
			pts = append(pts, BandwidthPoint{
				Time: float64(w) * windowSize,
				GBs:  wins[w] / windowSize / 1e9,
			})
		}
		res.Bandwidth[id] = pts
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
	events    iterHeap
	seq       int
	now       float64
	running   map[string]*runningJob
	results   []simulator.JobResult
	timeline  []simulator.Interval
	windows   map[string]map[int]float64 // job -> window index -> bytes
	makespan  float64
	finished  int
	rng       *stats.RNG
}

func (e *protoEngine) nextSeq() int {
	e.seq++
	return e.seq
}

func (e *protoEngine) loop(total int) error {
	guard := 0
	for e.events.Len() > 0 {
		guard++
		if guard > 100_000_000 {
			return fmt.Errorf("caffesim: iteration budget exceeded")
		}
		ev := heap.Pop(&e.events).(iterEvent)
		e.now = ev.time
		switch ev.kind {
		case 1: // arrival
			if err := e.scheduler.Submit(ev.job); err != nil {
				return err
			}
			if err := e.runScheduler(); err != nil {
				return err
			}
		case 0: // iteration end
			r, ok := e.running[ev.id]
			if !ok {
				continue
			}
			e.accountIteration(r)
			r.remaining--
			if r.remaining == 0 {
				if err := e.finish(r); err != nil {
					return err
				}
				if err := e.runScheduler(); err != nil {
					return err
				}
			} else {
				e.armIteration(r)
			}
		}
	}
	if e.finished != total {
		return fmt.Errorf("caffesim: only %d of %d jobs finished", e.finished, total)
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
		base := perfmodel.IterationTimeMode(j.Model, j.BatchSize, e.cfg.Topology, d.Placement.GPUs, computeScale, j.Parallelism)
		spec := perfmodel.GetSpec(j.Model)
		r := &runningJob{
			job:       j,
			alloc:     e.launched.Allocation(j.ID),
			gpus:      d.Placement.GPUs,
			remaining: j.Iterations,
			start:     e.now,
			utility:   d.Placement.Utility,
			p2p:       d.Placement.P2P,
			violated:  d.SLOViolated,
			waited:    d.Postponements,
			baseIter:  base,
			iterBytes: perfmodel.RingVolume(j.Model, len(d.Placement.GPUs)) + float64(j.BatchSize)*spec.InputBytesPerSample,
		}
		e.running[j.ID] = r
		e.armIteration(r)
	}
	return nil
}

// armIteration schedules the end of the job's next iteration, whose
// duration reflects the co-location interference at its start — the same
// cluster.State.Slowdown the trace-driven simulator rates jobs by, over
// the jobs launched so far.
func (e *protoEngine) armIteration(r *runningJob) {
	d := r.baseIter * (1 + e.launched.Slowdown(r.alloc))
	if e.cfg.JitterStddev > 0 {
		f := e.rng.Normal(1, e.cfg.JitterStddev)
		if f < 0.5 {
			f = 0.5
		}
		d *= f
	}
	heap.Push(&e.events, iterEvent{time: e.now + d, seq: e.nextSeq(), kind: 0, id: r.job.ID})
}

// accountIteration credits the iteration's interconnect bytes to the
// sampling window containing its completion time.
func (e *protoEngine) accountIteration(r *runningJob) {
	w := int(e.now / windowSize)
	wins := e.windows[r.job.ID]
	if wins == nil {
		wins = map[int]float64{}
		e.windows[r.job.ID] = wins
	}
	wins[w] += r.iterBytes
}

func (e *protoEngine) finish(r *runningJob) error {
	if err := e.scheduler.Release(r.job.ID); err != nil {
		return err
	}
	if err := e.launched.Release(r.job.ID); err != nil {
		return err
	}
	delete(e.running, r.job.ID)
	e.finished++
	if e.now > e.makespan {
		e.makespan = e.now
	}
	topo := e.cfg.Topology
	g := r.job.GPUs
	if n := topo.NumGPUs(); g > n {
		g = n
	}
	ideal := float64(r.job.Iterations) *
		perfmodel.IterationTimeMode(r.job.Model, r.job.BatchSize, topo, topo.BestAllocation(g), computeScale, r.job.Parallelism)
	run := e.now - r.start
	e.results = append(e.results, simulator.JobResult{
		Job:             r.job,
		GPUs:            r.gpus,
		Start:           r.start,
		Finish:          e.now,
		Wait:            r.start - r.job.Arrival,
		Run:             run,
		Ideal:           ideal,
		Utility:         r.utility,
		P2P:             r.p2p,
		SlowdownQoS:     math.Max(0, run/ideal-1),
		SlowdownQoSWait: math.Max(0, (e.now-r.job.Arrival)/ideal-1),
		SLOViolated:     r.violated,
		Postponements:   r.waited,
	})
	e.timeline = append(e.timeline, simulator.Interval{
		JobID:  r.job.ID,
		GPUs:   r.gpus,
		Start:  r.start,
		Finish: e.now,
	})
	return nil
}
