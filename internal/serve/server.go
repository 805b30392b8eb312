// Package serve is the durable toposerve engine behind the /v1 HTTP
// API. One single-writer goroutine owns the scheduling core; HTTP
// handlers enqueue typed operations and wait. The loop drains every
// operation that is ready into one batch, applies them, runs ONE
// scheduling round over the whole batch, journals everything to the
// event log and fsyncs once (group commit) before replying — so the
// marginal cost of an arrival under load is an O(1) queue insert plus a
// share of one Schedule call and one fsync.
//
// Durability: every accepted submit/release/withdraw is an event-log
// record; every Schedule call is a round record; every placement is a
// place record. On start the log replays through the same code paths
// (rounds re-run Schedule at exactly the batch boundaries live traffic
// produced), recomputed placements are verified against the journaled
// ones, and a snapshot record — written on graceful shutdown and every
// SnapshotEvery appended records — bounds the replay.
//
// Admission control: when the wait queue is at MaxQueue, submits are
// rejected with 429 and a Retry-After hint before touching the core.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/eventlog"
	"gputopo/internal/job"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/serveapi"
	"gputopo/internal/sweep"
	"gputopo/internal/topology"
)

const (
	// decisionLogCap bounds the in-memory decision ring: old entries are
	// dropped once the ring is full, appends stay O(1) on the writer loop.
	decisionLogCap = 4096
	// maxBatch bounds how many queued operations one scheduling round
	// amortizes, so a flood cannot starve reads on the same loop.
	maxBatch = 256
	// DefaultSnapshotEvery is the replay bound when Config.SnapshotEvery
	// is zero: once this many records accumulate after the last snapshot,
	// the loop rewrites the log to a fresh snapshot.
	DefaultSnapshotEvery = 4096
	// DefaultRetryAfterSec is the Retry-After hint on 429 responses when
	// Config.RetryAfterSec is zero.
	DefaultRetryAfterSec = 1
)

// Config configures a Server.
type Config struct {
	// Spec is the physical topology to serve (sweep's canonical specs, so
	// a served cluster and a simulated one are bit-compatible).
	Spec sweep.TopologySpec
	// Policy is the placement policy.
	Policy schedcore.Policy
	// Discipline selects the queue discipline (schedcore.ParseDiscipline
	// names: "fifo", "priority"). Empty means FIFO-by-arrival, which is
	// byte-compatible with logs written before disciplines existed.
	Discipline string
	// Preemption enables topology-aware preemption: positive-priority
	// jobs that cannot place may evict strictly lower-priority running
	// jobs. A durable server must be reopened with the same Discipline
	// and Preemption it logged under, or replay diverges.
	Preemption bool
	// LogPath enables durability: the event log lives there, is replayed
	// on start and group-committed per batch. Empty means in-memory only.
	LogPath string
	// MaxQueue is the admission-control depth limit: submits arriving
	// with the wait queue at this length get 429 + Retry-After. Zero
	// means unlimited.
	MaxQueue int
	// SnapshotEvery bounds replay: after this many records accumulate
	// past the last snapshot the log is rewritten. Zero = default;
	// negative disables automatic snapshots (graceful Close still writes
	// one).
	SnapshotEvery int
	// RetryAfterSec is the Retry-After hint (seconds) on 429. Zero =
	// default.
	RetryAfterSec int
	// FsyncEvery relaxes group commit: the log is fsynced once every N
	// batches instead of every batch, trading the durability of up to
	// N-1 acked batches for lower tail latency under bursty load. 0 or 1
	// keeps the default (every batch durable before its acks). Draining,
	// snapshots and Close always sync regardless.
	FsyncEvery int
	// Now overrides the server's time source (seconds, monotonic) for
	// tests. The served clock is Now() plus the base recovered from the
	// log, so time stays monotonic across restarts. Nil = wall time
	// since start.
	Now func() float64
}

// Server drives one scheduling core against one physical topology. All
// core access happens on the single writer goroutine (loop); HTTP
// handlers enqueue ops or closures and wait — the core itself is never
// touched concurrently, which is the invariant its purity contract
// requires.
type Server struct {
	cfg     Config
	core    *schedcore.Core
	clk     *schedcore.ManualClock
	topo    *topology.Topology
	topoKey string
	started time.Time

	// pubFree, pubMaxFree and pubFreeMach publish the cluster's free
	// counters (total free GPUs, the largest free block on one machine,
	// machines with any free GPU) after every batch, so a multi-domain
	// router can read them without a loop round-trip. Atomic because
	// readers live on other goroutines.
	pubFree     atomic.Int64
	pubMaxFree  atomic.Int64
	pubFreeMach atomic.Int64

	// clockBase shifts the time source so the served clock resumes from
	// the recovered log's highest timestamp — arrivals stay monotonic
	// across restarts.
	clockBase float64

	ops       chan *op
	cmds      chan func()
	quit      chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once
	draining  atomic.Bool

	log *eventlog.Log
	// logErr is sticky: once an append/sync/rewrite fails the journal no
	// longer matches the core, so the server refuses further writes (500)
	// rather than diverge silently.
	logErr error

	// Owned by the writer goroutine.
	jobs map[string]*job.Job // every accepted, not-yet-released job
	// decisions is a circular buffer: once it reaches decisionLogCap,
	// decHead marks the oldest record and appends overwrite in place.
	decisions []serveapi.DecisionRecord
	decHead   int
	decSeq    int
	// statsBase carries the scheduler counters a snapshot absorbed;
	// reported stats are statsBase + the live core's counters.
	statsBase schedcore.Stats
	// batches / batchedOps instrument group commit (batchedOps/batches =
	// mean amortization); replayed counts log records applied at start.
	batches    int
	batchedOps int
	replayed   int
	// unsynced counts batches committed since the last fsync (fsync
	// batching); snapshots counts snapshot rewrites this process wrote.
	unsynced  int
	snapshots int

	// replayExpect holds the current replay round's recomputed
	// placements, consumed and verified by the following place records.
	replayExpect []serveapi.DecisionRecord
	replayMax    float64
	replaySaw    bool
}

type opKind int

const (
	opSubmit opKind = iota
	opRelease
)

// op is one write operation enqueued to the batching loop. The loop
// fills the response fields and closes done.
type op struct {
	kind opKind
	req  serveapi.JobRequest // opSubmit
	id   string              // opRelease in; resolved ID out for opSubmit

	status     int // HTTP status; 0 means 200 with the typed response
	errCode    string
	errMsg     string
	retryAfter int
	accepted   bool // mutated core state (and journaled)
	released   bool // opRelease freed GPUs (schedule ran)
	jobResp    serveapi.JobResponse
	relResp    serveapi.ReleaseResponse
	done       chan struct{}
}

func (o *op) fail(status int, code, format string, args ...any) {
	o.status = status
	o.errCode = code
	o.errMsg = fmt.Sprintf(format, args...)
}

// New builds the substrate for the topology spec (the same
// profile-store construction the sweep engine uses), replays the event
// log when one is configured, and starts the writer loop.
func New(cfg Config) (*Server, error) {
	topo, err := cfg.Spec.Build(cfg.Spec.EffectiveMachines(1), false)
	if err != nil {
		return nil, err
	}
	maxGPUs := topo.NumGPUs()
	if maxGPUs > 8 {
		maxGPUs = 8
	}
	profiles := profile.Generate(topo, maxGPUs)
	mapper, err := core.NewMapper(profiles, core.DefaultWeights())
	if err != nil {
		return nil, err
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.RetryAfterSec == 0 {
		cfg.RetryAfterSec = DefaultRetryAfterSec
	}
	disc, err := schedcore.ParseDiscipline(cfg.Discipline)
	if err != nil {
		return nil, err
	}
	clk := schedcore.NewManualClock(0)
	sched := schedcore.New(cfg.Policy, cluster.NewState(topo), mapper,
		schedcore.WithClock(clk), schedcore.WithQueueDiscipline(disc))
	if cfg.Preemption {
		sched.SetPreemption(true)
	}
	s := &Server{
		cfg:      cfg,
		core:     sched,
		clk:      clk,
		topo:     topo,
		topoKey:  cfg.Spec.Key(),
		ops:      make(chan *op),
		cmds:     make(chan func()),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
		jobs:     map[string]*job.Job{},
	}
	if cfg.LogPath != "" {
		l, err := eventlog.Open(cfg.LogPath, s.applyRecord)
		if err != nil {
			return nil, fmt.Errorf("serve: recovering %s: %w", cfg.LogPath, err)
		}
		s.log = l
		// Leftover expected placements mean the tail lost place records
		// after a committed round — the aftermath of a crash mid-batch.
		// The recomputed decisions are already in the ring; nothing to
		// verify them against, which is fine: they were never acked.
		s.replayExpect = nil
		if s.replayMax > s.clockBase {
			s.clockBase = s.replayMax
		}
	}
	s.publishFree()
	s.started = time.Now()
	go s.loop()
	return s, nil
}

// publishFree refreshes the atomic free-GPU counters from the cluster
// state. Called wherever allocations may have changed, always from the
// goroutine that owns the core.
func (s *Server) publishFree() {
	st := s.core.State()
	s.pubFree.Store(int64(st.FreeGPUCount()))
	s.pubMaxFree.Store(int64(st.MaxFreeGPUs()))
	s.pubFreeMach.Store(int64(st.FreeMachines()))
}

// FreeCounters reads the published free counters: the cluster's total
// free GPUs, the largest free block on one machine and the number of
// machines with any free GPU, as of the last completed batch. Safe from
// any goroutine.
func (s *Server) FreeCounters() (free, maxOnMachine, freeMachines int) {
	return int(s.pubFree.Load()), int(s.pubMaxFree.Load()), int(s.pubFreeMach.Load())
}

// JobIDs returns the IDs of every accepted, not-yet-released job
// (running and queued), sorted, read on the writer goroutine. After a
// durable start this is the replayed population — the state a sharded
// front-end must rebuild its routing table from. Returns false when the
// server is shut down.
func (s *Server) JobIDs() ([]string, bool) {
	var ids []string
	ok := s.do(func() {
		ids = make([]string, 0, len(s.jobs))
		for id := range s.jobs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
	})
	return ids, ok
}

// Topology returns the served physical topology (immutable).
func (s *Server) Topology() *topology.Topology { return s.topo }

// now returns the served clock: the recovered base plus the time
// source's reading.
func (s *Server) now() float64 {
	if s.cfg.Now != nil {
		return s.clockBase + s.cfg.Now()
	}
	return s.clockBase + time.Since(s.started).Seconds()
}

// Replayed returns the number of event-log records applied at startup —
// the measured replay bound.
func (s *Server) Replayed() int { return s.replayed }

// Durable reports whether an event log backs this server.
func (s *Server) Durable() bool { return s.log != nil }

// loop is the single writer: it owns the core and every mutable server
// field. Ready operations are drained into one batch per iteration.
func (s *Server) loop() {
	defer close(s.loopDone)
	batch := make([]*op, 0, maxBatch)
	for {
		select {
		case o := <-s.ops:
			batch = append(batch[:0], o)
		drain:
			for len(batch) < maxBatch {
				select {
				case o2 := <-s.ops:
					batch = append(batch, o2)
				default:
					break drain
				}
			}
			s.processBatch(batch)
		case fn := <-s.cmds:
			fn()
		case <-s.quit:
			return
		}
	}
}

// submit enqueues an op and waits for the loop to process it. Returns
// false when the server is shut down before the op is accepted.
func (s *Server) submit(o *op) bool {
	select {
	case s.ops <- o:
	case <-s.quit:
		return false
	}
	<-o.done
	return true
}

// do runs fn on the writer goroutine and waits for it. Returns false
// when the server is shut down.
func (s *Server) do(fn func()) bool {
	done := make(chan struct{})
	select {
	case s.cmds <- func() { fn(); close(done) }:
		<-done
		return true
	case <-s.quit:
		return false
	}
}

// processBatch applies every op in order, runs one scheduling round if
// any op changed scheduler state, journals the batch and fsyncs once,
// then fills each op's response.
func (s *Server) processBatch(batch []*op) {
	now := s.now()
	s.clk.Set(now)
	s.batches++
	s.batchedOps += len(batch)

	needRound := false
	for _, o := range batch {
		switch o.kind {
		case opSubmit:
			s.applySubmit(o, now, &needRound)
		case opRelease:
			s.applyRelease(o, &needRound)
		}
	}

	var roundRecs []serveapi.DecisionRecord
	if needRound {
		// Each iteration journals its own round record so replay batches
		// at exactly the same boundaries; place and evict records journal
		// the results for divergence checking. A round that evicted is
		// followed by another round at the same clock: the victims are
		// back in the queue and deserve an immediate re-placement attempt,
		// exactly like the simulator's multi-round loop. Termination: each
		// preemptive placement swaps strictly lower-priority victims for a
		// higher-priority runner, so the running set's priority multiset
		// strictly climbs.
		for {
			s.logAppend(eventlog.Record{Type: eventlog.TypeRound, Time: now})
			recs := s.appendDecisions(s.core.Schedule())
			evicted := false
			for i := range recs {
				switch {
				case recs[i].Evicted:
					evicted = true
					s.logAppend(eventlog.Record{Type: eventlog.TypeEvict, Time: now, Decision: &recs[i]})
				case recs[i].Placed:
					s.logAppend(eventlog.Record{Type: eventlog.TypePlace, Time: now, Decision: &recs[i]})
				}
			}
			roundRecs = append(roundRecs, recs...)
			if !evicted {
				break
			}
		}
	}

	// Group commit: one fsync covers every record of the batch. Ops are
	// answered only after their records are durable.
	commitErr := s.commit()

	submitted := map[string]bool{}
	for _, o := range batch {
		if o.kind == opSubmit && o.accepted {
			submitted[o.id] = true
		}
	}
	for _, o := range batch {
		s.finish(o, now, roundRecs, submitted, commitErr)
		close(o.done)
	}
	s.maybeSnapshot(now)
	s.publishFree()
}

// applySubmit admits, validates and submits one job (no scheduling yet).
func (s *Server) applySubmit(o *op, now float64, needRound *bool) {
	if s.log != nil && s.logErr != nil {
		o.fail(500, serveapi.CodeInternal, "event log unavailable: %v", s.logErr)
		return
	}
	id := o.req.ID
	if id == "" {
		id = fmt.Sprintf("job-%d", len(s.jobs)+1)
		for s.jobs[id] != nil {
			id = "x" + id
		}
	}
	o.id = id
	if s.jobs[id] != nil {
		o.fail(409, serveapi.CodeJobExists, "job %s already exists", id)
		return
	}
	if s.cfg.MaxQueue > 0 && s.core.QueueLen() >= s.cfg.MaxQueue {
		o.retryAfter = s.cfg.RetryAfterSec
		o.fail(429, serveapi.CodeQueueFull, "queue depth %d at limit %d", s.core.QueueLen(), s.cfg.MaxQueue)
		return
	}
	spec := serveapi.JobSpec{JobRequest: o.req, Arrival: now}
	spec.ID = id
	j, err := spec.Job()
	if err != nil {
		o.fail(400, serveapi.CodeInvalidJob, "%v", err)
		return
	}
	if err := s.core.Submit(j); err != nil {
		o.fail(400, serveapi.CodeInvalidJob, "%v", err)
		return
	}
	s.jobs[id] = j
	o.accepted = true
	// Journal the fully resolved spec so replay rebuilds the exact job
	// without re-running the defaulting.
	resolved := serveapi.SpecOf(j)
	s.logAppend(eventlog.Record{Type: eventlog.TypeSubmit, Time: now, Job: &resolved})
	*needRound = true
}

// applyRelease frees a running job's GPUs (a scheduling round follows)
// or withdraws a queued one.
func (s *Server) applyRelease(o *op, needRound *bool) {
	id := o.id
	if s.jobs[id] == nil {
		o.fail(404, serveapi.CodeJobNotFound, "no queued or running job %q", id)
		return
	}
	if s.log != nil && s.logErr != nil {
		o.fail(500, serveapi.CodeInternal, "event log unavailable: %v", s.logErr)
		return
	}
	now := s.clk.Now()
	if s.core.State().Allocation(id) != nil {
		if err := s.core.Release(id); err != nil {
			o.fail(500, serveapi.CodeInternal, "%v", err)
			return
		}
		delete(s.jobs, id)
		o.accepted = true
		o.released = true
		s.logAppend(eventlog.Record{Type: eventlog.TypeRelease, Time: now, JobID: id})
		*needRound = true
		return
	}
	if s.core.Withdraw(id) {
		delete(s.jobs, id)
		o.accepted = true
		s.logAppend(eventlog.Record{Type: eventlog.TypeWithdraw, Time: now, JobID: id})
		o.relResp = serveapi.ReleaseResponse{ID: id, Status: "withdrawn"}
		return
	}
	o.fail(404, serveapi.CodeJobNotFound, "no queued or running job %q", id)
}

// finish fills op responses from the round's decisions.
func (s *Server) finish(o *op, now float64, roundRecs []serveapi.DecisionRecord, submitted map[string]bool, commitErr error) {
	if o.errCode != "" {
		return
	}
	if commitErr != nil && o.accepted {
		// The op mutated the core but its record is not durable; the
		// journal is now behind and logErr (sticky) blocks further
		// writes. Answer 500 so the client does not trust the ack.
		o.fail(500, serveapi.CodeInternal, "event log commit failed: %v", commitErr)
		return
	}
	switch o.kind {
	case opSubmit:
		resp := serveapi.JobResponse{ID: o.id, Time: now}
		// The LAST record wins: under preemption a job can be placed in
		// one round of the batch and evicted in a later one — its final
		// status is back-in-queue, reason "preempted".
		var mine *serveapi.DecisionRecord
		for i := len(roundRecs) - 1; i >= 0; i-- {
			if roundRecs[i].JobID == o.id {
				mine = &roundRecs[i]
				break
			}
		}
		if mine != nil && mine.Placed {
			resp.Status = "placed"
			resp.GPUs = mine.GPUs
			resp.Utility = mine.Utility
			resp.SLOViolated = mine.SLOViolated
		} else {
			resp.Status = "queued"
			if mine != nil {
				resp.Reason = mine.Reason
			}
			if resp.Reason == "" {
				resp.Reason = "no-capacity"
			}
			for i, qj := range s.core.Queued() {
				if qj.ID == o.id {
					resp.QueuePosition = i + 1
					break
				}
			}
		}
		o.jobResp = resp
	case opRelease:
		if o.released {
			// Unblocked: jobs this batch's round placed from the wait
			// queue — arrivals admitted in the same batch placed on their
			// own account, not the release's.
			var unblocked []string
			for i := range roundRecs {
				if roundRecs[i].Placed && !submitted[roundRecs[i].JobID] {
					unblocked = append(unblocked, roundRecs[i].JobID)
				}
			}
			o.relResp = serveapi.ReleaseResponse{ID: o.id, Status: "released", Unblocked: unblocked}
		}
		// Withdrawn responses were filled in applyRelease.
	}
}

// appendDecisions assigns sequence numbers to a round's decisions and
// appends them to the ring; shared verbatim between live batches and
// replay so the ring reconstructs identically. A preemptive placement
// expands into its eviction notices (one ring record per victim, so
// /v1/decisions clients learn about displaced jobs) followed by the
// preemptor's own placement record.
func (s *Server) appendDecisions(ds []*schedcore.Decision) []serveapi.DecisionRecord {
	recs := make([]serveapi.DecisionRecord, 0, len(ds))
	ring := func(r serveapi.DecisionRecord) {
		if len(s.decisions) == decisionLogCap {
			s.decisions[s.decHead] = r
			s.decHead = (s.decHead + 1) % decisionLogCap
		} else {
			s.decisions = append(s.decisions, r)
		}
		recs = append(recs, r)
	}
	for _, d := range ds {
		for _, ev := range d.Evictions {
			s.decSeq++
			ring(serveapi.DecisionRecord{
				Seq:         s.decSeq,
				Time:        d.Time,
				JobID:       ev.Job.ID,
				Reason:      "preempted",
				Evicted:     true,
				PreemptedBy: d.Job.ID,
				GPUs:        append([]int(nil), ev.GPUs...),
			})
		}
		s.decSeq++
		r := serveapi.DecisionRecord{
			Seq:    s.decSeq,
			Time:   d.Time,
			JobID:  d.Job.ID,
			Placed: !d.Postponed,
			Reason: d.Reason,
		}
		if !d.Postponed {
			r.GPUs = append([]int(nil), d.Placement.GPUs...)
			r.Utility = d.Placement.Utility
			r.SLOViolated = d.SLOViolated
			r.Postponements = d.Postponements
		}
		ring(r)
	}
	return recs
}

// logAppend journals one record, making log failures sticky.
func (s *Server) logAppend(rec eventlog.Record) {
	if s.log == nil || s.logErr != nil {
		return
	}
	if err := s.log.Append(rec); err != nil {
		s.logErr = err
	}
}

// commit is the group-commit fsync for the batch. With FsyncEvery > 1
// the fsync itself is batched further: only every Nth batch pays it,
// and the acks of the batches between ride on the next sync — the
// relaxed-durability mode Config.FsyncEvery documents. Draining always
// syncs so a graceful shutdown loses nothing.
func (s *Server) commit() error {
	if s.log == nil {
		return nil
	}
	if s.logErr != nil {
		return s.logErr
	}
	s.unsynced++
	if s.cfg.FsyncEvery > 1 && s.unsynced < s.cfg.FsyncEvery && !s.draining.Load() {
		return nil
	}
	s.unsynced = 0
	if err := s.log.Sync(); err != nil {
		s.logErr = err
		return err
	}
	return nil
}

// combinedStats merges the live core's counters with the snapshot base
// (which carries no place cache traffic: the cache runs cold after a
// recovery).
func (s *Server) combinedStats() schedcore.Stats {
	cur := s.core.Stats()
	cur.Add(s.statsBase)
	return cur
}

// BeginDrain stops admitting submissions (503 draining); releases and
// reads continue so running work can finish. Safe from any goroutine.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close shuts down gracefully: stop the loop, write a final snapshot
// (bounding the next start's replay to zero records) and close the log.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		close(s.quit)
		<-s.loopDone
		if s.log != nil {
			if s.logErr == nil {
				// The loop has exited; single-threaded access is ours.
				s.writeSnapshot(s.now())
				err = s.logErr
			} else {
				err = s.logErr
			}
			if cerr := s.log.Close(); err == nil {
				err = cerr
			}
		}
	})
	return err
}

// Kill stops the server WITHOUT the final snapshot — the shutdown path
// of a crash, kept honest for the kill-and-restart recovery tests. All
// acked operations are already fsynced, so nothing is lost; the next
// start replays the raw log.
func (s *Server) Kill() {
	s.closeOnce.Do(func() {
		close(s.quit)
		<-s.loopDone
		if s.log != nil {
			s.log.Close()
		}
	})
}
