package main

import (
	"container/heap"
	"fmt"

	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/serveapi"
	"gputopo/internal/stats"
)

type opKind uint8

const (
	opSubmit    opKind = iota // POST /v1/jobs
	opRelease                 // DELETE /v1/jobs/{id}
	opDecisions               // GET /v1/decisions?after=cursor
	opState                   // GET /v1/state
)

func (k opKind) String() string {
	return [...]string{"POST", "DELETE", "GET-decisions", "GET-state"}[k]
}

const (
	decisionsEvery = 50  // one GET /v1/decisions per this many ops
	stateEvery     = 200 // one GET /v1/state per this many ops
)

// jobRec is one generated job. acked closes when its POST has been
// answered: a DELETE is never sent before that, so the server sees each
// job's two operations in order however the clients interleave.
type jobRec struct {
	idx   int
	req   serveapi.JobRequest
	acked chan struct{}
	// placedOnPost is what the POST answered; the DELETE reads it (after
	// acked) to tell "ran at some point" from "withdrawn unplaced".
	placedOnPost bool
}

// genOp is one operation of the sequence on its virtual timeline.
type genOp struct {
	Kind opKind
	At   float64 // virtual due time, seconds from the start of the sequence
	Job  *jobRec // submit and release only
}

// String renders the op canonically; the determinism test compares these.
func (o genOp) String() string {
	if o.Job == nil {
		return fmt.Sprintf("%.9f %s", o.At, o.Kind)
	}
	r := o.Job.req
	return fmt.Sprintf("%.9f %s %s %s b%d g%d u%g p%d", o.At, o.Kind, r.ID, r.Model, r.BatchSize, r.GPUs, r.MinUtility, r.Priority)
}

// genConfig shapes one serving workload's traffic.
type genConfig struct {
	// Key separates the workloads' random streams under one -seed.
	Key string
	// Rate is the Poisson arrival rate, jobs per virtual second.
	Rate float64
	// MeanHold is the mean of the exponential hold time between a job's
	// POST and its DELETE; samples are clamped to [0.02 s, 4·MeanHold].
	MeanHold float64
	// Share8 is the share of 8-GPU jobs; the rest split 1/2/4 GPUs at
	// 40/40/20 as §5.3.
	Share8 float64
	// PriorityShare is the share of jobs submitted at priority 1.
	PriorityShare float64
}

// meanGPUs is the expected GPU request of one generated job.
func (c genConfig) meanGPUs() float64 {
	return c.Share8*8 + (1-c.Share8)*(0.4*1+0.4*2+0.2*4)
}

type pendingRelease struct {
	at  float64
	job *jobRec
}

type releaseHeap []pendingRelease

func (h releaseHeap) Len() int { return len(h) }
func (h releaseHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].job.idx < h[j].job.idx
}
func (h releaseHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)   { *h = append(*h, x.(pendingRelease)) }
func (h *releaseHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// generator streams one seeded op sequence: job i is POSTed at t_i and
// DELETEd at t_i + h_i whether it is running or still queued by then,
// which is what keeps cluster occupancy a property of the sequence and
// not of how fast the server happened to answer. A GET is slipped in
// after every decisionsEvery-th and stateEvery-th op. The program under
// test only ever sees these generated inputs, never the seed.
type generator struct {
	cfg      genConfig
	arrivals *stats.RNG
	shapes   *stats.RNG
	holds    *stats.RNG

	nextAt   float64 // arrival time of the next job
	nextIdx  int
	releases releaseHeap
	queued   []genOp // GETs waiting to be emitted
	emitted  int
	stopped  bool
}

func newGenerator(cfg genConfig, seed uint64) *generator {
	base := stats.DeriveSeed(seed, cfg.Key)
	g := &generator{
		cfg:      cfg,
		arrivals: stats.NewRNG(stats.DeriveSeed(base, "arrivals")),
		shapes:   stats.NewRNG(stats.DeriveSeed(base, "shapes")),
		holds:    stats.NewRNG(stats.DeriveSeed(base, "holds")),
	}
	g.nextAt = g.arrivals.Exponential(cfg.Rate)
	return g
}

// stopSubmits ends the arrival process: from here next yields only the
// DELETEs of jobs already submitted, then reports the end.
func (g *generator) stopSubmits() { g.stopped = true }

func (g *generator) next() (genOp, bool) {
	if len(g.queued) > 0 {
		op := g.queued[0]
		g.queued = g.queued[1:]
		return op, true
	}
	var op genOp
	switch {
	case !g.stopped && (len(g.releases) == 0 || g.nextAt <= g.releases[0].at):
		op = genOp{Kind: opSubmit, At: g.nextAt, Job: g.newJob()}
		heap.Push(&g.releases, pendingRelease{at: g.nextAt + g.hold(), job: op.Job})
		g.nextAt += g.arrivals.Exponential(g.cfg.Rate)
	case len(g.releases) > 0:
		r := heap.Pop(&g.releases).(pendingRelease)
		op = genOp{Kind: opRelease, At: r.at, Job: r.job}
	default:
		return genOp{}, false
	}
	g.emitted++
	if g.emitted%decisionsEvery == 0 {
		g.queued = append(g.queued, genOp{Kind: opDecisions, At: op.At})
	}
	if g.emitted%stateEvery == 0 {
		g.queued = append(g.queued, genOp{Kind: opState, At: op.At})
	}
	return op, true
}

func (g *generator) hold() float64 {
	h := g.holds.Exponential(1 / g.cfg.MeanHold)
	if h < 0.02 {
		h = 0.02
	}
	if h > 4*g.cfg.MeanHold {
		h = 4 * g.cfg.MeanHold
	}
	return h
}

func (g *generator) newJob() *jobRec {
	r := g.shapes
	gpus := 8
	if r.Float64() >= g.cfg.Share8 {
		switch pick := r.Intn(100); {
		case pick < 40:
			gpus = 1
		case pick < 80:
			gpus = 2
		default:
			gpus = 4
		}
	}
	minU := 0.3
	if gpus > 1 {
		minU = 0.5
	}
	prio := 0
	if g.cfg.PriorityShare > 0 && r.Float64() < g.cfg.PriorityShare {
		prio = 1
	}
	j := &jobRec{
		idx: g.nextIdx,
		req: serveapi.JobRequest{
			ID:         fmt.Sprintf("j%07d", g.nextIdx),
			Model:      perfmodel.NN(r.Intn(3)).String(),
			BatchSize:  jobgraph.BatchClass(r.Intn(4)).Size(),
			GPUs:       gpus,
			MinUtility: minU,
			Priority:   prio,
		},
		acked: make(chan struct{}),
	}
	g.nextIdx++
	return j
}

// prefix returns the first n write operations of the sequence with
// their interleaved GETs, followed by the DELETEs still owed, so that
// replaying all of it leaves the cluster empty. cut is where that
// closing tail starts: ops[:cut] ends mid-traffic.
func prefix(cfg genConfig, seed uint64, n int) (ops []genOp, cut int) {
	g := newGenerator(cfg, seed)
	writes := 0
	for {
		if writes == n && !g.stopped {
			g.stopSubmits()
			cut = len(ops)
		}
		op, ok := g.next()
		if !ok {
			return ops, cut
		}
		if op.Kind == opSubmit || op.Kind == opRelease {
			writes++
		}
		ops = append(ops, op)
	}
}
