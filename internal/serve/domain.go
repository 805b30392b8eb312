package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/eventlog"
	"gputopo/internal/job"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/serveapi"
	"gputopo/internal/topology"
)

// domain drives one scheduling core against its slice of the cluster:
// core, manual clock, event log, decision ring, and the batch → commit →
// snapshot loop. All core access happens on the single writer goroutine
// (loop); the Server in front enqueues ops or closures and waits — the
// core itself is never touched concurrently, which is the invariant its
// purity contract requires. Nothing in here knows about HTTP, other
// domains or cluster-wide GPU coordinates.
type domain struct {
	cfg     Config // Spec and LogPath are this domain's own
	core    *schedcore.Core
	clk     *schedcore.ManualClock
	topo    *topology.Topology
	mapper  *core.Mapper
	disc    schedcore.QueueDiscipline
	started time.Time

	// pubFree, pubMaxFree and pubFreeMach publish the domain's free
	// counters (total free GPUs, the largest free block on one machine,
	// machines with any free GPU) after every batch, so the router reads
	// them without a loop round-trip. Atomic because readers live on
	// other goroutines.
	pubFree     atomic.Int64
	pubMaxFree  atomic.Int64
	pubFreeMach atomic.Int64

	// clockBase shifts the time source so the served clock resumes from
	// the recovered log's highest timestamp — arrivals stay monotonic
	// across restarts.
	clockBase float64

	ops      chan *op
	cmds     chan func()
	quit     chan struct{}
	loopDone chan struct{}
	draining *atomic.Bool // the Server's drain flag

	log *eventlog.Log
	// logErr is the first append of the batch in progress that failed; the
	// batch fails with it and appends nothing more.
	logErr error
	// readOnly is why the domain refuses writes (503 read_only): a batch
	// whose append, fsync or core step failed and was rolled back
	// (rollBack), or a snapshot rewrite that failed. nil while the domain
	// takes writes. lost is why it refuses reads too: the rollback failed,
	// so no core the journal describes is left to read.
	readOnly error
	lost     error

	// Owned by the writer goroutine. The domain keeps no job index: its
	// core answers for the running and queued jobs, and the Server's home
	// map routes only this domain's jobs here.
	//
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
	job  *job.Job // opSubmit: materialized by the front; the loop stamps Arrival
	id   string   // the job's ID

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

func submitOp(j *job.Job) *op {
	return &op{kind: opSubmit, job: j, id: j.ID, done: make(chan struct{})}
}

func releaseOp(id string) *op {
	return &op{kind: opRelease, id: id, done: make(chan struct{})}
}

func (o *op) fail(status int, code, format string, args ...any) {
	o.status = status
	o.errCode = code
	o.errMsg = fmt.Sprintf(format, args...)
}

// newDomain builds the substrate for the domain's topology spec (the
// same profile-store construction the sweep engine uses), builds its core
// and replays the event log into it when one is configured (rebuild), and
// starts the writer loop.
func newDomain(cfg Config, disc schedcore.QueueDiscipline, draining *atomic.Bool) (*domain, error) {
	topo, err := cfg.Spec.Build(cfg.Spec.EffectiveMachines(1), false)
	if err != nil {
		return nil, err
	}
	mapper, err := core.NewMapper(profile.Default(topo), core.DefaultWeights())
	if err != nil {
		return nil, err
	}
	d := &domain{
		cfg:      cfg,
		clk:      schedcore.NewManualClock(0),
		topo:     topo,
		mapper:   mapper,
		disc:     disc,
		ops:      make(chan *op),
		cmds:     make(chan func()),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
		draining: draining,
	}
	if err := d.rebuild(); err != nil {
		return nil, err
	}
	// The served clock resumes from the log's highest timestamp.
	d.clockBase = d.replayMax
	d.publishFree()
	d.started = time.Now()
	go d.loop()
	return d, nil
}

// rebuild gives the domain a fresh core and, when it journals, replays
// its event log into it: at boot, and when a failed batch rolls back
// (rollBack), after the batch's records were cut from the log. Everything
// the replay rebuilds — the decision ring, its sequence, the stats base,
// the replay bookkeeping — starts over; the served clock does not.
func (d *domain) rebuild() error {
	d.core = schedcore.New(d.cfg.Policy, cluster.NewState(d.topo), d.mapper,
		schedcore.WithClock(d.clk), schedcore.WithQueueDiscipline(d.disc))
	d.core.SetPreemption(d.cfg.Preemption)
	d.decisions, d.decHead, d.decSeq, d.statsBase = nil, 0, 0, schedcore.Stats{}
	d.replayed, d.replayMax, d.replaySaw, d.logErr = 0, 0, false, nil
	if d.cfg.LogPath == "" {
		return nil
	}
	l, err := eventlog.Open(d.cfg.LogPath, d.applyRecord)
	if err != nil {
		return fmt.Errorf("serve: recovering %s: %w", d.cfg.LogPath, err)
	}
	d.log = l
	// Leftover expected placements mean the tail lost place records
	// after a committed round — the aftermath of a crash mid-batch.
	// The recomputed decisions are already in the ring; nothing to
	// verify them against, which is fine: they were never acked.
	d.replayExpect = nil
	return nil
}

// rollBack makes the domain read-only after a batch failed — cause is the
// failed append, fsync or core step — and undoes the batch: it cuts the
// log back to start, the batch's first byte, and rebuilds the core from
// what is left, the records of every batch before. The recovery a restart
// runs is the undo, so no mutation needs an inverse. When the cut or the
// replay fails, or the domain keeps no log to replay, the domain is lost:
// reads answer 503 as well.
func (d *domain) rollBack(start int64, cause error) {
	d.readOnly = cause
	if d.log == nil {
		d.lost = fmt.Errorf("%w (no event log to roll back by)", cause)
		return
	}
	d.log.Close() // the batch already failed; a second error from its file says nothing new
	err := eventlog.Truncate(d.cfg.LogPath, start)
	if err == nil {
		err = d.rebuild()
	}
	if err != nil {
		d.lost = fmt.Errorf("%w; rolling back: %v", cause, err)
	}
}

// publishFree refreshes the atomic free-GPU counters from the cluster
// state. Called wherever allocations may have changed or the domain
// stopped taking writes, always from the goroutine that owns the core. A
// read-only domain publishes no free capacity and a free GPU count of -1,
// which the router reads as "takes no writes": a submission goes to a live
// domain whenever one admits it, and one that only read-only domains admit
// is still routed to one and answered 503 read_only.
func (d *domain) publishFree() {
	if d.readOnly != nil {
		d.pubFree.Store(-1)
		d.pubMaxFree.Store(0)
		d.pubFreeMach.Store(0)
		return
	}
	st := d.core.State()
	d.pubFree.Store(int64(st.FreeGPUCount()))
	d.pubMaxFree.Store(int64(st.MaxFreeGPUs()))
	d.pubFreeMach.Store(int64(st.FreeMachines()))
}

// freeCounters reads the published free counters: the domain's total
// free GPUs, the largest free block on one machine and the number of
// machines with any free GPU, as of the last completed batch. Safe from
// any goroutine.
func (d *domain) freeCounters() (free, maxOnMachine, freeMachines int) {
	return int(d.pubFree.Load()), int(d.pubMaxFree.Load()), int(d.pubFreeMach.Load())
}

// now returns the served clock: the recovered base plus the time
// source's reading.
func (d *domain) now() float64 {
	if d.cfg.Now != nil {
		return d.clockBase + d.cfg.Now()
	}
	return d.clockBase + time.Since(d.started).Seconds()
}

// loop is the single writer: it owns the core and every mutable domain
// field. Ready operations are drained into one batch per iteration.
func (d *domain) loop() {
	defer close(d.loopDone)
	batch := make([]*op, 0, maxBatch)
	for {
		select {
		case o := <-d.ops:
			batch = append(batch[:0], o)
		drain:
			for len(batch) < maxBatch {
				select {
				case o2 := <-d.ops:
					batch = append(batch, o2)
				default:
					break drain
				}
			}
			d.processBatch(batch)
		case fn := <-d.cmds:
			fn()
		case <-d.quit:
			return
		}
	}
}

// submit enqueues an op and waits for the loop to process it. Returns
// false when the server is shut down before the op is accepted.
func (d *domain) submit(o *op) bool {
	select {
	case d.ops <- o:
	case <-d.quit:
		return false
	}
	<-o.done
	return true
}

// do runs fn on the writer goroutine and waits for it. Returns false
// when the server is shut down.
func (d *domain) do(fn func()) bool {
	done := make(chan struct{})
	select {
	case d.cmds <- func() { fn(); close(done) }:
		<-done
		return true
	case <-d.quit:
		return false
	}
}

// processBatch applies every op in order, runs one scheduling round if
// any op changed scheduler state, journals the batch and fsyncs once,
// then fills each op's response. A batch whose append, fsync or core step
// fails is rolled back (rollBack) and its ops answer 503 read_only, like
// every batch after it.
func (d *domain) processBatch(batch []*op) {
	if d.readOnly != nil {
		d.refuse(batch)
		return
	}
	now := d.now()
	d.clk.Set(now)
	d.batches++
	d.batchedOps += len(batch)
	var start int64
	if d.log != nil {
		start = d.log.Size()
	}

	needRound := false
	for _, o := range batch {
		switch o.kind {
		case opSubmit:
			d.applySubmit(o, now, &needRound)
		case opRelease:
			d.applyRelease(o, &needRound)
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
			d.logAppend(eventlog.Record{Type: eventlog.TypeRound, Time: now})
			recs := d.appendDecisions(d.core.Schedule())
			evicted := false
			for i := range recs {
				switch {
				case recs[i].Evicted:
					evicted = true
					d.logAppend(eventlog.Record{Type: eventlog.TypeEvict, Time: now, Decision: &recs[i]})
				case recs[i].Placed:
					d.logAppend(eventlog.Record{Type: eventlog.TypePlace, Time: now, Decision: &recs[i]})
				}
			}
			roundRecs = append(roundRecs, recs...)
			if !evicted {
				break
			}
		}
	}

	// Group commit: one write and one fsync cover every record of the
	// batch. Ops are answered only after their records are durable.
	err := d.commit()
	if err == nil {
		err = d.core.Fault()
	}
	if err != nil {
		d.rollBack(start, err)
		d.publishFree()
		d.refuse(batch)
		return
	}

	submitted := map[string]bool{}
	for _, o := range batch {
		if o.kind == opSubmit && o.accepted {
			submitted[o.id] = true
		}
	}
	// Publish before answering: a client that has its ack must find the
	// router already routing on the capacity that ack describes.
	d.publishFree()
	for _, o := range batch {
		d.finish(o, now, roundRecs, submitted)
		close(o.done)
	}
	d.maybeSnapshot(now)
}

// applySubmit admits and submits one job (no scheduling yet). The front
// already resolved the ID in the cluster-wide namespace and materialized
// the job; the loop owns admission control and the arrival stamp.
func (d *domain) applySubmit(o *op, now float64, needRound *bool) {
	if d.cfg.MaxQueue > 0 && d.core.QueueLen() >= d.cfg.MaxQueue {
		o.retryAfter = retryAfterSec
		o.fail(429, serveapi.CodeQueueFull, "queue depth %d at limit %d", d.core.QueueLen(), d.cfg.MaxQueue)
		return
	}
	j := o.job
	j.Arrival = now
	if err := d.core.Submit(j); err != nil {
		o.fail(400, serveapi.CodeInvalidJob, "%v", err)
		return
	}
	o.accepted = true
	// Journal the fully resolved spec so replay rebuilds the exact job
	// without re-running the defaulting.
	resolved := serveapi.SpecOf(j)
	d.logAppend(eventlog.Record{Type: eventlog.TypeSubmit, Time: now, Job: &resolved})
	*needRound = true
}

// applyRelease frees a running job's GPUs (a scheduling round follows)
// or withdraws a queued one. The Server routes here only IDs it homed to
// this domain; one that a concurrent DELETE took first is found neither
// running nor queued and answers 404.
func (d *domain) applyRelease(o *op, needRound *bool) {
	id := o.id
	now := d.clk.Now()
	if d.core.State().Allocation(id) != nil {
		if err := d.core.Release(id); err != nil {
			o.fail(500, serveapi.CodeInternal, "%v", err)
			return
		}
		o.accepted = true
		o.released = true
		d.logAppend(eventlog.Record{Type: eventlog.TypeRelease, Time: now, JobID: id})
		*needRound = true
		return
	}
	if d.core.Withdraw(id) {
		o.accepted = true
		d.logAppend(eventlog.Record{Type: eventlog.TypeWithdraw, Time: now, JobID: id})
		o.relResp = serveapi.ReleaseResponse{ID: id, Status: "withdrawn"}
		return
	}
	o.fail(404, serveapi.CodeJobNotFound, "no queued or running job %q", id)
}

// refuse answers every op of a batch the domain did not commit 503
// read_only and closes it. What the ops did to the core is gone with it —
// the rollback replaced it, or a lost domain serves nothing — so none is
// accepted: the front homes no refused submit and keeps a refused
// release's job homed.
func (d *domain) refuse(batch []*op) {
	for _, o := range batch {
		o.accepted = false
		o.fail(503, serveapi.CodeReadOnly, "the job's scheduling domain is read-only: %v", d.readOnly)
		close(o.done)
	}
}

// finish fills op responses from the round's decisions.
func (d *domain) finish(o *op, now float64, roundRecs []serveapi.DecisionRecord, submitted map[string]bool) {
	if o.errCode != "" {
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
			for i, qj := range d.core.Queued() {
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
			// own account, not the release'd.
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
func (d *domain) appendDecisions(ds []*schedcore.Decision) []serveapi.DecisionRecord {
	recs := make([]serveapi.DecisionRecord, 0, len(ds))
	ring := func(r serveapi.DecisionRecord) {
		if len(d.decisions) == decisionLogCap {
			d.decisions[d.decHead] = r
			d.decHead = (d.decHead + 1) % decisionLogCap
		} else {
			d.decisions = append(d.decisions, r)
		}
		recs = append(recs, r)
	}
	for _, dec := range ds {
		for _, ev := range dec.Evictions {
			d.decSeq++
			ring(serveapi.DecisionRecord{
				Seq:         d.decSeq,
				Time:        dec.Time,
				JobID:       ev.Job.ID,
				Reason:      "preempted",
				Evicted:     true,
				PreemptedBy: dec.Job.ID,
				GPUs:        append([]int(nil), ev.GPUs...),
			})
		}
		d.decSeq++
		r := serveapi.DecisionRecord{
			Seq:    d.decSeq,
			Time:   dec.Time,
			JobID:  dec.Job.ID,
			Placed: !dec.Postponed,
			Reason: dec.Reason,
		}
		if !dec.Postponed {
			r.GPUs = append([]int(nil), dec.Placement.GPUs...)
			r.Utility = dec.Placement.Utility
			r.SLOViolated = dec.SLOViolated
			r.Postponements = dec.Postponements
		}
		ring(r)
	}
	return recs
}

// logAppend journals one record; after a failed append the batch appends
// nothing more.
func (d *domain) logAppend(rec eventlog.Record) {
	if d.log == nil || d.logErr != nil {
		return
	}
	if err := d.log.Append(rec); err != nil {
		d.logErr = err
	}
}

// commit is the group commit for the batch, or the batch's failed append:
// every batch's records go to the OS in one write (Flush) before its ops
// are answered, and the batch is fsynced with them. With FsyncEvery > 1
// the fsync itself is batched further: only every Nth batch pays it, and
// the acks of the batches between ride on the next sync — the
// relaxed-durability mode Config.FsyncEvery documents. Draining always
// syncs so a graceful shutdown loses nothing.
func (d *domain) commit() error {
	if d.log == nil {
		return nil
	}
	if d.logErr != nil {
		return d.logErr
	}
	d.unsynced++
	if d.cfg.FsyncEvery > 1 && d.unsynced < d.cfg.FsyncEvery && !d.draining.Load() {
		return d.log.Flush()
	}
	d.unsynced = 0
	return d.log.Sync()
}

// combinedStats merges the live core's counters with the snapshot base.
func (d *domain) combinedStats() schedcore.Stats {
	cur := d.core.Stats()
	cur.Add(d.statsBase)
	return cur
}

// decisionsPage builds one page: records with seq > after, oldest
// first, at most limit. Runs on the writer goroutine.
func (d *domain) decisionsPage(after, limit int) serveapi.DecisionsResponse {
	resp := serveapi.DecisionsResponse{Decisions: []serveapi.DecisionRecord{}, NextAfter: after}
	n := len(d.decisions)
	if n == 0 {
		return resp
	}
	oldest := d.decisions[d.decHead%n].Seq
	resp.OldestSeq = oldest
	resp.LatestSeq = d.decSeq
	// Records in (after, oldest) were dropped from the ring: the cursor
	// missed them, and the client deserves to know rather than silently
	// skipping the gap.
	resp.Truncated = after < oldest-1
	start := 0
	if after >= oldest {
		start = after - oldest + 1
	}
	for i := start; i < n && len(resp.Decisions) < limit; i++ {
		resp.Decisions = append(resp.Decisions, d.decisions[(d.decHead+i)%n])
	}
	if len(resp.Decisions) > 0 {
		resp.NextAfter = resp.Decisions[len(resp.Decisions)-1].Seq
	}
	return resp
}

// domainState is one domain's share of GET /v1/state, in domain-local
// coordinates and unrendered: the wire summary plus what the Server's
// merge needs to build the cluster-wide response.
type domainState struct {
	serveapi.DomainState
	clock     float64
	fragments float64
	stats     schedcore.Stats
	running   []serveapi.RunningEntry // GPUs are domain-local positions
	queue     []serveapi.QueuedEntry
	busFree   []float64 // free bus bandwidth by local machine
}

// snapshot captures the domain's state. Must run on the writer
// goroutine.
func (d *domain) snapshot() domainState {
	st := d.core.State()
	running, queued := st.Jobs(), d.core.Queued()
	sn := domainState{
		DomainState: serveapi.DomainState{
			Topology:  d.cfg.Spec.Key(),
			Machines:  d.topo.NumMachines(),
			GPUs:      d.topo.NumGPUs(),
			FreeGPUs:  st.FreeGPUCount(),
			Running:   len(running),
			Queued:    len(queued),
			Decisions: len(d.decisions),
		},
		clock:     d.now(),
		fragments: st.Fragmentation(),
		stats:     d.combinedStats(),
	}
	if d.log != nil {
		sn.Log = &serveapi.LogStats{
			Records:            d.log.Records(),
			SinceSnapshot:      d.log.SinceRewrite(),
			BytesSinceSnapshot: d.log.BytesSinceRewrite(),
			Snapshots:          d.snapshots,
			ReplayedAtBoot:     d.replayed,
			Syncs:              d.log.Syncs(),
		}
	}
	for _, id := range running {
		sn.running = append(sn.running, serveapi.RunningEntry{ID: id, GPUs: st.Allocation(id).GPUs})
	}
	for _, qj := range queued {
		sn.queue = append(sn.queue, serveapi.QueuedEntry{
			ID: qj.ID, GPUs: qj.GPUs, MinUtility: qj.MinUtility, Arrival: qj.Arrival,
			Priority: qj.Priority,
		})
	}
	for m := 0; m < d.topo.NumMachines(); m++ {
		sn.busFree = append(sn.busFree, st.FreeBusBandwidth(m))
	}
	return sn
}

// stop ends the loop and closes the log. Graceful (snapshot true) it
// first writes a final snapshot, bounding the next start's replay to one
// record; otherwise it leaves the raw log, as a crash would — all acked
// operations are already fsynced, so nothing is lost either way.
func (d *domain) stop(snapshot bool) error {
	close(d.quit)
	<-d.loopDone
	if d.log == nil || d.lost != nil {
		return d.readOnly // a lost domain's log is closed already
	}
	if snapshot {
		// The loop has exited; single-threaded access is ours.
		d.writeSnapshot(d.now())
	}
	err := d.readOnly
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}
