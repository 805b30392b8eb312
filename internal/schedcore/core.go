// Package schedcore is the driver-agnostic scheduling core of §4.4
// (Algorithm 1): queue management, the placement loop, the wake-up
// index and the four placement policies of §5, behind a small
// Core API (Submit / Release / Schedule / Stats) with a pluggable Clock
// and a QueueDiscipline value, FIFO (the zero value) or priority.
//
// The core is deliberately pure: it performs no I/O, reads time only
// through its Clock (decision-latency instrumentation excepted), and is
// a deterministic function of the submission/release sequence and the
// cluster state. That is what lets two very different drivers share it
// bit for bit — the discrete-event simulator (internal/simulator) drives
// it with a virtual ManualClock, and the real-time serving front-end
// (cmd/toposerve) drives it with a wall Clock from a single-writer event
// loop. The core itself is not safe for concurrent use; exactly one
// goroutine may call its methods.
package schedcore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/heap"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
)

// Decision records the outcome of one placement attempt.
type Decision struct {
	Job       *job.Job
	Placement *core.Placement // nil when postponed
	// Postponed is true when the job stayed in the queue this round.
	Postponed bool
	// Reason explains a postponement ("no-capacity", "low-utility", or
	// "fault" for a step that failed — see Core.Fault).
	Reason string
	// SLOViolated is true when the job was placed with a utility below
	// its declared minimum (greedy policies and TOPO-AWARE do this;
	// TOPO-AWARE-P by construction does not, except on an idle cluster
	// where no better placement can ever exist).
	SLOViolated bool
	// Slot, set on placement decisions only, is the slot of the job's
	// allocation (cluster.Allocation.Slot) when it was placed: a driver
	// that keeps per-job records by slot files the job there. It sits
	// beside SLOViolated, in that field's padding.
	Slot int32
	// Time is the Clock reading at the Schedule call that produced the
	// decision: virtual seconds under the simulator, wall seconds since
	// server start under toposerve.
	Time float64
	// Postponements, set on placement decisions only, is the number of
	// scheduling rounds the job waited in the queue before this
	// placement. Under TOPO-AWARE-P it is computed from the round
	// counters, so rounds the wake-up index left the job parked count
	// exactly like rounds that examined and postponed it.
	Postponements int
	// Evictions lists the running jobs this placement preempted, in
	// eviction order. Non-empty only under SetPreemption(true) when the
	// placement went through the preemption path; the victims are
	// re-enqueued and will appear in later placement decisions.
	Evictions []Eviction
}

// Stats accumulates scheduler bookkeeping, including the decision-time
// measurements reported in §5.5.3.
type Stats struct {
	Decisions     int
	Placements    int
	Postponements int
	SLOViolations int
	// GateSkips is always 0 (the version gate is gone); kept because the
	// frozen cmd/topoperf reads it (docs/performance.md, "The frozen
	// benchmark contract").
	GateSkips int
	// WakeSkips counts queued jobs the wake-up index left parked during a
	// Schedule call: capacity-blocked jobs whose wake-up key (the smallest
	// free-GPU count that could unblock them) the cluster had not reached,
	// so no decision record was materialized for them at all. They still
	// count as Postponements — one per parked job per round, as the naive
	// reference counts them — but cost O(1) in bulk instead of O(1) each.
	WakeSkips int
	// Preemptions counts placements that went through the preemption
	// path (evicting at least one victim); Evictions counts the victims
	// those placements displaced. Both stay zero unless SetPreemption
	// enabled the path.
	Preemptions  int
	Evictions    int
	DecisionTime time.Duration // total time spent deciding
	MaxDecision  time.Duration
	// Always 0, like GateSkips (the place-cache LRU is gone); kept because
	// the frozen cmd/topoperf reads them (docs/performance.md, "The frozen
	// benchmark contract").
	PlaceCacheHits      int
	PlaceCacheMisses    int
	PlaceCacheEvictions int
}

// Add folds o into s — shards into a merged result, a snapshot base into
// the live counters. Counters and DecisionTime sum; MaxDecision, a
// worst case rather than a total, takes the larger.
func (s *Stats) Add(o Stats) {
	s.Decisions += o.Decisions
	s.Placements += o.Placements
	s.Postponements += o.Postponements
	s.SLOViolations += o.SLOViolations
	s.WakeSkips += o.WakeSkips
	s.Preemptions += o.Preemptions
	s.Evictions += o.Evictions
	s.DecisionTime += o.DecisionTime
	s.MaxDecision = max(s.MaxDecision, o.MaxDecision)
}

// MeanDecisionTime returns the average time per placement decision.
func (s Stats) MeanDecisionTime() time.Duration {
	if s.Decisions == 0 {
		return 0
	}
	return s.DecisionTime / time.Duration(s.Decisions)
}

// entry is one queued job plus the bookkeeping the core keeps per job:
// the submission sequence (tie-break of the queue discipline), the round
// the job entered the queue (postponement accounting), and the count of
// explicitly emitted postponement decisions (in-order policies).
type entry struct {
	job        *job.Job
	seq        uint64
	enterRound int
	postponed  int
	// parked is a transient flag: examine sets it when it files the entry
	// into a wake-up bucket, so the indexed walk knows not to keep the
	// entry on the active list too. Reset on every examine.
	parked bool
}

// lane is one discipline class of the queue: the entries whose key's A
// is a, in key order.
type lane struct {
	a  float64
	es []entry
}

// Core owns the waiting queue and the cluster allocation state. Build one
// with New; drive it from exactly one goroutine.
type Core struct {
	policy Policy
	state  *cluster.State
	clock  Clock
	disc   QueueDiscipline

	// lanes hold the waiting jobs every round looks at, in queue order
	// (§4.4: arrival order avoids starvation): one lane per discipline
	// class, the key's A, in ascending A, each in (B, C) order, so queue
	// order is the lanes read one after another. An arrival lands at the
	// end of its class's lane, however deep the classes ahead of it are.
	// Only non-empty lanes are listed; spare keeps a drained lane's array
	// for the next lane to open. For the in-order
	// policies (FCFS, BF, TOPO-AWARE) the lanes are the whole wait list.
	// Under TOPO-AWARE-P they are the active part of the wake-up index:
	// new submissions and jobs whose last failure was a placement-policy
	// outcome (low utility, constraint infeasibility) rather than raw
	// capacity.
	lanes []lane
	spare []entry

	// Wake-up index (TOPO-AWARE-P only; empty otherwise).
	// parkedSingle/parkedMulti hold the capacity-blocked jobs,
	// bucketed by their wake-up key — the smallest free-GPU count
	// (largest-free-machine count for single-node jobs, cluster-wide
	// count for multi-node ones) that could possibly unblock them — as
	// heaps on their queue-order keys (Core.key): a bucket's head is the
	// entry the discipline would serve first. Each is indexed by the key,
	// a job's GPU count, so the buckets the current capacity reaches are
	// a prefix. A Schedule call pops a bucket only while the capacity its
	// key demands is there, so a release reschedules O(affected) jobs
	// instead of waking (and re-parking) whole buckets or walking the
	// whole queue; everything deeper in a bucket is provably blocked for
	// the rest of the round and is never touched.
	parkedSingle [][]parkedEntry
	parkedMulti  [][]parkedEntry
	nParked      int

	seq    uint64 // next submission sequence number
	rounds int    // completed Schedule calls

	// place evaluates the placement policies against the live state — the
	// preemption path's victim sets too, each inside a trial on it.
	place placer
	// victimCands and victimHeld are the victim search's per-machine
	// candidate buffers: the candidates' slots in eviction order and the
	// GPUs each holds on the machine. Dead once selectVictims returns.
	victimCands []int32
	victimHeld  []int

	// Preemption bookkeeping. running mirrors the cluster state's
	// allocations as job objects, indexed by allocation slot
	// (cluster.Allocation.Slot) and nil where the core placed no job, so
	// victim selection can rank running jobs by priority without a
	// reverse lookup; tiers counts them per priority (the victim index —
	// see addRunning). pendingRequeue stages the victims evicted during
	// the current Schedule round: they rejoin the queue only after the
	// round's dispatch finishes, so the round never examines a job it
	// just evicted. deferred holds parked entries whose wake-up bucket an
	// eviction re-opened *behind* the round's progress point — they
	// re-park untouched at the end of the round (see scheduleIndexed).
	preemptOn      bool
	running        []*job.Job
	tiers          []tier
	pendingRequeue []*job.Job
	deferred       []entry
	evictedInRound bool

	stats Stats
	// fault is the first step that failed (Fault).
	fault error

	// decBuf and decPtrs are the reusable decision buffers: at scenario-2
	// queue depths every event produces many postponement decisions, and
	// allocating them fresh per Schedule call dominated the scheduler's
	// allocation profile. The returned slice is valid until the next
	// Schedule call.
	decBuf  []Decision
	decPtrs []*Decision
	// rejoin holds the parked entries an indexed Schedule round popped and
	// left active, in queue order, until they join their lanes. Its
	// contents are dead once the owning call returns.
	rejoin []entry
}

// Option configures a Core at construction.
type Option func(*Core)

// WithClock sets the core's clock (default: a ManualClock at 0).
func WithClock(clk Clock) Option { return func(c *Core) { c.clock = clk } }

// WithQueueDiscipline sets the queue ordering (default: FIFOByArrival).
func WithQueueDiscipline(d QueueDiscipline) Option { return func(c *Core) { c.disc = d } }

// New returns a core with the given policy over the state. The mapper is
// required for the topology-aware policies and used by the greedy ones
// only to score their decisions for the metrics.
func New(policy Policy, state *cluster.State, mapper *core.Mapper, opts ...Option) *Core {
	c := &Core{
		policy: policy,
		state:  state,
		place:  placer{policy: policy, state: state, mapper: mapper},
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.clock == nil {
		c.clock = zeroClock{}
	}
	return c
}

// indexed reports whether the wake-up index drives Schedule: TOPO-AWARE-P
// is the one policy that walks past a blocked job. The in-order policies
// stop at the first one, so their walks are already O(affected).
func (c *Core) indexed() bool { return c.policy == TopoAwareP }

// State returns the cluster allocation state the core mutates.
func (c *Core) State() *cluster.State { return c.state }

// Stats returns a copy of the accumulated statistics.
func (c *Core) Stats() Stats { return c.stats }

// Fault returns the first scheduling step that failed since New, nil when
// none has: a placement whose allocation the cluster state refused, a
// victim search whose trial failed, a preemption whose commit failed. A
// failed step changes nothing — its trial rolled back and its job stayed
// queued, its decision a postponement with reason "fault" — so the core
// stays consistent, but the failure means the state disagrees with what
// the core knows of it: a driver checks Fault after Schedule and stops (the
// simulator) or rebuilds the core from its journal (toposerve).
func (c *Core) Fault() error { return c.fault }

// fail records err as a failed step of d's job: d stays a postponement,
// with reason "fault", and the core's first fault is kept.
func (c *Core) fail(d *Decision, err error) {
	d.Reason = "fault"
	if c.fault == nil {
		c.fault = err
	}
}

// Now returns the core's clock reading: virtual seconds in the
// simulator, served seconds in toposerve (each sets a ManualClock), 0
// for a core built without a clock.
func (c *Core) Now() float64 { return c.clock.Now() }

// parkedEntry is an entry in a wake-up bucket, under its key.
type parkedEntry = heap.Item[entry]

// key is e's place in queue order: the discipline's key, with the
// submission sequence as C, so ties keep submission order — exactly the
// order a stable sort of the append-ordered queue produces.
func (c *Core) key(e *entry) heap.Key {
	k := c.disc.Key(e.job)
	k.C = e.seq
	return k
}

// entryCmp orders entries by key.
func (c *Core) entryCmp(a, b entry) int {
	ka, kb := c.key(&a), c.key(&b)
	if ka.Less(&kb) {
		return -1
	}
	if kb.Less(&ka) {
		return 1
	}
	return 0
}

// insertOrdered inserts e behind every entry it does not precede: before
// the first queued entry whose key is greater. The lane is sorted that
// way already, and e, submitted last, has the greatest sequence, so this
// is where a stable sort of the appended queue would put it; a job
// arriving in discipline order (the common case, driven by event loops
// and monotonic wall clocks) is appended without a search.
func (c *Core) insertOrdered(q []entry, e entry) []entry {
	k := c.key(&e)
	i := len(q)
	if i > 0 {
		if last := c.key(&q[i-1]); k.Less(&last) {
			i = sort.Search(len(q), func(i int) bool {
				ki := c.key(&q[i])
				return k.Less(&ki)
			})
		}
	}
	return slices.Insert(q, i, e)
}

// push files e into its class's lane, opening the lane on the spare array
// when the class has none.
func (c *Core) push(e entry) {
	a := c.disc.Key(e.job).A
	i, ok := slices.BinarySearchFunc(c.lanes, a, func(l lane, a float64) int { return cmp.Compare(l.a, a) })
	if !ok {
		c.lanes = slices.Insert(c.lanes, i, lane{a: a, es: c.spare})
		c.spare = nil
	}
	c.lanes[i].es = c.insertOrdered(c.lanes[i].es, e)
}

// dropLane unlists lane i, which has drained and holds no job. Its array
// becomes the spare when it is the larger, so a queue that drains every
// round does not reallocate on every Submit; the list never holds more
// lanes than the classes queued.
func (c *Core) dropLane(i int) {
	if es := c.lanes[i].es; cap(es) > cap(c.spare) {
		c.spare = es[:0]
	}
	c.lanes = slices.Delete(c.lanes, i, i+1)
}

// Submit enqueues a job.
func (c *Core) Submit(j *job.Job) error { return c.RestoreQueued(QueuedEntry{Job: j}) }

// RestoreQueued enqueues a waiting job with the bookkeeping QueueState
// reported for it, so that the next round treats it exactly as the
// reporting core would have — the serving front-end's snapshot restore. A
// submission is the case without bookkeeping.
func (c *Core) RestoreQueued(q QueuedEntry) error {
	if err := q.Job.Validate(); err != nil {
		return err
	}
	c.enqueue(q)
	return nil
}

// enqueue adds q's job to the queue, parked when q says so and the
// wake-up index is on. A fresh submission is never parked: it has not
// been evaluated yet, so no wake-up key is known for it.
func (c *Core) enqueue(q QueuedEntry) {
	e := entry{job: q.Job, seq: c.seq, enterRound: c.rounds - q.Waited, postponed: q.Postponed}
	c.seq++
	if q.Parked && c.indexed() {
		c.park(&e)
		return
	}
	c.push(e)
}

// QueueLen returns the number of waiting jobs.
func (c *Core) QueueLen() int {
	n := c.nParked
	for i := range c.lanes {
		n += len(c.lanes[i].es)
	}
	return n
}

// Queued returns the waiting jobs in queue order. With jobs parked in
// the wake-up index this merges them back in (O(n log n)); it is a
// reporting accessor, not a hot path.
func (c *Core) Queued() []*job.Job {
	out := make([]*job.Job, 0, c.QueueLen())
	c.entries(func(e *entry) { out = append(out, e.job) })
	return out
}

// QueuedEntry is a waiting job with the bookkeeping a durable server
// journals to restore it exactly: the rounds it has waited, its explicit
// postponement count, and whether the wake-up index holds it parked.
type QueuedEntry struct {
	Job       *job.Job
	Waited    int
	Postponed int
	Parked    bool
}

// QueueState returns the waiting jobs in queue order with their
// bookkeeping, for RestoreQueued to rebuild elsewhere.
func (c *Core) QueueState() []QueuedEntry {
	out := make([]QueuedEntry, 0, c.QueueLen())
	c.entries(func(e *entry) {
		out = append(out, QueuedEntry{Job: e.job, Waited: c.rounds - e.enterRound, Postponed: e.postponed, Parked: e.parked})
	})
	return out
}

// entries visits the queued and parked entries in queue order: the lanes
// one after another when nothing is parked, else a sorted copy with the
// parked entries merged in.
func (c *Core) entries(visit func(*entry)) {
	if c.nParked == 0 {
		for i := range c.lanes {
			for k := range c.lanes[i].es {
				visit(&c.lanes[i].es[k])
			}
		}
		return
	}
	es := make([]entry, 0, c.QueueLen())
	for _, l := range c.lanes {
		es = append(es, l.es...)
	}
	for _, buckets := range [][][]parkedEntry{c.parkedSingle, c.parkedMulti} {
		for _, h := range buckets {
			for i := range h {
				es = append(es, h[i].Val)
			}
		}
	}
	slices.SortFunc(es, c.entryCmp)
	for i := range es {
		visit(&es[i])
	}
}

// Release frees the allocation of a finished job.
func (c *Core) Release(jobID string) error {
	a := c.state.Allocation(jobID)
	if a == nil {
		return c.state.Release(jobID) // the state's unknown-job error
	}
	if err := c.state.ReleaseSlot(a.Slot); err != nil {
		return err
	}
	c.removeRunning(a.Slot)
	return nil
}

// Restore re-registers a recovered running job with its original
// placement — the replay path of a durable driver restoring a snapshot.
// Unlike allocating on the cluster state directly, it also registers the
// job in the core's running set, so preemption can see (and evict)
// recovered jobs exactly like freshly placed ones.
func (c *Core) Restore(j *job.Job, gpus []int, bandwidth float64) error {
	slot, err := c.state.AllocateSlot(j.ID, gpus, bandwidth, j.Traits())
	if err != nil {
		return err
	}
	c.addRunning(j, slot)
	return nil
}

// Withdraw removes a still-queued job (it never placed) from the queue
// and the wake-up index — the serving front-end's cancellation path. It
// returns false when no queued job has the ID.
func (c *Core) Withdraw(jobID string) bool {
	for i := range c.lanes {
		l := &c.lanes[i]
		for k := range l.es {
			if l.es[k].job.ID == jobID {
				// slices.Delete zeroes the vacated tail slot, so the withdrawn
				// job does not linger reachable in the backing array.
				if l.es = slices.Delete(l.es, k, k+1); len(l.es) == 0 {
					c.dropLane(i)
				}
				return true
			}
		}
	}
	removeParked := func(buckets [][]parkedEntry) bool {
		for g, h := range buckets {
			for i := range h {
				if h[i].Val.job.ID == jobID {
					c.unpark(buckets, g, i)
					return true
				}
			}
		}
		return false
	}
	return removeParked(c.parkedSingle) || removeParked(c.parkedMulti)
}

// Schedule runs one iteration of Algorithm 1: it examines the waiting
// queue in discipline order, attempting to place each job, and returns
// the decisions made. Jobs that cannot be placed stay queued. The
// in-order policies (FCFS, BF, TOPO-AWARE) stop at the first job blocked
// on capacity, preserving FIFO fairness; TOPO-AWARE-P skips postponed
// jobs and continues (out-of-order execution, §4.4).
//
// Wake-up index (TOPO-AWARE-P): capacity-blocked jobs are parked under
// the smallest free-GPU count that could unblock them and are not even
// visited — much less given decision records — until the cluster reaches
// it, making events O(affected) instead of O(waiting). Parked-and-skipped
// jobs still count as postponements in bulk, so Stats (and every
// artifact metric) equals what a walk over the whole queue would
// produce — the differential harness's naive reference is that walk;
// only the returned decision stream omits their no-capacity records.
//
// The returned slice and the decisions it points to are reused by the
// next Schedule call — consume them before scheduling again (the
// simulation engines do).
func (c *Core) Schedule() []*Decision {
	c.rounds++
	c.decBuf = c.decBuf[:0]
	c.evictedInRound = false
	now := c.clock.Now()
	if c.indexed() {
		c.scheduleIndexed(now)
	} else {
		c.scheduleWalk(now)
	}
	c.requeueVictims()
	// Build the pointer view only after the value buffer stopped growing:
	// append may relocate decBuf, so taking addresses mid-walk would hand
	// out dangling pointers.
	c.decPtrs = c.decPtrs[:0]
	for i := range c.decBuf {
		c.decPtrs = append(c.decPtrs, &c.decBuf[i])
	}
	return c.decPtrs
}

// waited returns the placement-decision postponement count for e. Under
// TOPO-AWARE-P every queued job is postponed once per round (examined or
// left parked), so it is the number of completed scheduling rounds the
// job sat in the queue; the in-order policies never reach the jobs behind
// a blocked head, so they report the explicitly emitted count instead.
func (c *Core) waited(e *entry) int {
	if c.policy == TopoAwareP {
		return c.rounds - 1 - e.enterRound
	}
	return e.postponed
}

// scheduleWalk is the in-order path (FCFS, BF, TOPO-AWARE): examine the
// head of the queue until one blocks, lane by lane. The blocked job's
// lane then starts at it — the head advances, nothing moves — and the
// dead prefix goes when insertOrdered next outgrows the shrunken capacity
// and regrows the backing array from the live entries alone. The lanes
// walked past have drained and are dropped.
func (c *Core) scheduleWalk(now float64) {
	for len(c.lanes) > 0 {
		l := &c.lanes[0]
		placed := 0
		for placed < len(l.es) && c.examine(&l.es[placed], now) {
			placed++
		}
		// Clear the dropped prefix so placed jobs do not linger in the
		// backing array and keep their allocations reachable.
		clear(l.es[:placed])
		if placed < len(l.es) {
			l.es = l.es[placed:]
			return
		}
		c.dropLane(0)
	}
}

// scheduleIndexed is the wake-up-index path (TOPO-AWARE-P only). It
// merge-walks the queue against the heads of the parked buckets in
// exact queue order, but consults a bucket only while the capacity its
// wake-up key demands is actually there — so a parked job is popped only
// when its availableResources gate is about to pass, and a release event
// costs O(active + unblocked) instead of O(waiting).
//
// Decision-equivalence with a walk over the whole queue (what the
// differential harness's naive reference does): capacity only shrinks
// during the walk (Schedule never releases), so a bucket whose key
// exceeds the current capacity is guaranteed to fail the O(1) gate at
// this and every later position of a full walk — its jobs would each
// receive a rubber-stamp no-capacity postponement and stay queued. The
// index skips materializing those records and accounts them in bulk,
// which keeps Stats (and every artifact metric) bit-identical to the
// full walk.
//
// Preemption is the one event that grows capacity mid-round, and it
// breaks the only-shrinks invariant in exactly one way: an eviction can
// re-open a bucket whose head sits *behind* the round's progress point —
// a job a full walk already rubber-stamped at its earlier queue position
// and will not revisit this round. Picking it now would diverge from the
// walk, so such heads are deferred (popped, stashed, re-parked after the
// round); heads at or past the watermark are picked normally, which is
// precisely the walk's behavior of later positions seeing post-eviction
// capacity. The watermark is the queue-order key of the last examined
// entry.
func (c *Core) scheduleIndexed(now float64) {
	queueLen := c.QueueLen()
	// The next active entry is lanes[li].es[ai]. Its lane's survivors move
	// up to es[:w] in place, and once read the lane is cut to them and the
	// slots behind them cleared, so placed and parked jobs do not linger
	// reachable in its backing array.
	li, ai, w := 0, 0, 0
	var watermark heap.Key
	haveMark := false
	for {
		// Candidates: the next active entry and the head of every bucket
		// the *current* capacity reaches — the buckets up to it. Re-reading
		// the capacity per pick is what makes mid-walk placements gate
		// later picks exactly like the full walk's per-position check. Keys
		// are distinct, so the queue-order minimum wins regardless of the
		// order the candidates are inspected in.
		for li < len(c.lanes) && ai == len(c.lanes[li].es) {
			l := &c.lanes[li]
			clear(l.es[w:])
			l.es = l.es[:w]
			li, ai, w = li+1, 0, 0
		}
		found := li < len(c.lanes)
		var bestKey heap.Key
		var bestBuckets [][]parkedEntry
		var bestBucket int
		if found {
			bestKey = c.key(&c.lanes[li].es[ai])
		}
		consider := func(buckets [][]parkedEntry, capacity int) {
			for g, h := range buckets[:min(capacity+1, len(buckets))] {
				if len(h) > 0 && (!found || h[0].Less(&bestKey)) {
					found, bestKey, bestBuckets, bestBucket = true, h[0].Key, buckets, g
				}
			}
		}
		consider(c.parkedSingle, c.state.MaxFreeGPUs())
		consider(c.parkedMulti, c.state.FreeGPUCount())
		if !found {
			break
		}
		var e entry
		active := bestBuckets == nil
		if active {
			e = c.lanes[li].es[ai]
			ai++
		} else {
			e = c.unpark(bestBuckets, bestBucket, 0)
			if c.evictedInRound && haveMark && bestKey.Less(&watermark) {
				// This bucket only became eligible through an eviction, and
				// its head's queue position was already passed: the full
				// walk gave the job its no-capacity record back then and
				// will not revisit it this round. Defer it — it re-parks
				// untouched once the round ends.
				c.deferred = append(c.deferred, e)
				continue
			}
		}
		watermark, haveMark = bestKey, true
		// A popped bucket entry passed its capacity gate by construction,
		// so examine either placed it or left it for the active set; an
		// active entry may also have just parked itself (examine pushed it
		// into a — now ineligible — bucket).
		if c.examine(&e, now) || e.parked {
			continue
		}
		// The survivor stays active: an entry of the lane moves up in it,
		// a popped one joins its class's lane once the walk is over.
		if active {
			c.lanes[li].es[w] = e
			w++
		} else {
			c.rejoin = append(c.rejoin, e)
		}
	}
	for i := range c.rejoin {
		c.push(c.rejoin[i])
		c.rejoin[i] = entry{}
	}
	c.rejoin = c.rejoin[:0]
	for i := len(c.lanes) - 1; i >= 0; i-- {
		if len(c.lanes[i].es) == 0 {
			c.dropLane(i)
		}
	}

	// Entries deferred by the watermark check re-park under their
	// original wake-up keys, exactly as the full walk leaves them queued.
	for i := range c.deferred {
		c.park(&c.deferred[i])
		c.deferred[i] = entry{}
	}
	c.deferred = c.deferred[:0]

	// Bulk accounting for the jobs the index never visited: a full walk
	// would have given each one a no-capacity postponement decision this
	// round. Every visited job appended exactly one
	// decision, so the skip count falls out of the buffer length.
	// Deferred entries land here too — the walk's record for them was
	// issued before the eviction, at their original queue position.
	skipped := queueLen - len(c.decBuf)
	c.stats.Postponements += skipped
	c.stats.WakeSkips += skipped
}

// examine runs the per-job step of Algorithm 1 on e: the O(1)
// availableResources gate, the placement policy, and for a
// preemption-eligible job left without capacity the victim search. It
// appends the job's decision to decBuf, a no-capacity postponement until
// an attempt fills it in, and updates stats. A job that does not place
// stays with its caller — the in-order path keeps it at the head of the
// queue, the indexed path keeps non-parked survivors active — except that
// under the index a capacity-blocked job is filed straight into its
// wake-up bucket here (and e.parked tells the caller so). Returns true
// when the job placed.
func (c *Core) examine(e *entry, now float64) bool {
	j := e.job
	e.parked = false
	// Fill a zero record in place: appending a literal would copy it in.
	c.decBuf = append(c.decBuf, Decision{})
	d := &c.decBuf[len(c.decBuf)-1]
	d.Job, d.Postponed, d.Reason, d.Time = j, true, "no-capacity", now
	// availableResources(P) gate: skip the placement evaluation entirely
	// when no machine (or, for multi-node jobs, the whole cluster) can
	// hold the request. O(1) thanks to the cluster state's incremental
	// free counters.
	enough := c.state.MaxFreeGPUs() >= j.GPUs
	if !j.SingleNode {
		enough = c.state.FreeGPUCount() >= j.GPUs
	}
	placed := enough && c.decide(d, false)
	// A job the gate or the policy left without capacity (fragmentation,
	// bandwidth, DRB infeasibility are capacity too) may evict its way in.
	if !placed && d.Reason == "no-capacity" && c.preemptEligible(j) {
		placed = c.decide(d, true)
	}
	if placed {
		d.Postponements = c.waited(e)
	} else {
		c.stats.Postponements++
		e.postponed++
	}
	if !placed && !enough && c.indexed() && !c.preemptEligible(j) {
		// Park under the wake-up key: the free-GPU count that must be
		// reached before the gate above can pass again. Preemption-
		// eligible jobs never park — their chance to place changes
		// whenever a lower-priority job starts running, an event the
		// capacity-keyed index cannot wake them for, so they stay
		// active and are re-examined every round like a full walk
		// would.
		c.park(e)
	}
	return placed
}

// decide makes one placement attempt for d's job under the
// decision-latency clock — the policy's (tryPlace), or with preempt a
// victim search (tryPreempt) — writes its outcome into d, which arrives
// a postponement, and counts it. Every policy attempt is a decision,
// placed or not; a victim search is one only when it places, and then
// also a preemption with its evictions. Returns whether the job placed.
func (c *Core) decide(d *Decision, preempt bool) bool {
	if preempt && !c.victimsRunning(d.Job.Priority) {
		// Nothing strictly lower runs — on a contended cluster, nearly
		// every blocked high-priority job, every round: answered off the
		// victim index, before the clock starts.
		return false
	}
	start := time.Now() //lint:ignore wallclock decision-latency instrumentation, the documented exception: elapsed feeds Stats only, never scheduling decisions
	if preempt {
		c.tryPreempt(d)
	} else {
		c.tryPlace(d)
	}
	elapsed := time.Since(start) //lint:ignore wallclock decision-latency instrumentation, the documented exception
	if preempt && d.Postponed {
		return false // the search found no victim set: no decision
	}
	c.stats.Decisions++
	c.stats.DecisionTime += elapsed
	if elapsed > c.stats.MaxDecision {
		c.stats.MaxDecision = elapsed
	}
	if d.Postponed {
		return false
	}
	c.stats.Placements++
	if preempt {
		c.stats.Preemptions++
		c.stats.Evictions += len(d.Evictions)
	}
	if d.SLOViolated {
		c.stats.SLOViolations++
	}
	return true
}

// park files a capacity-blocked entry into its wake-up bucket: the
// free-GPU count that must be reached before its availableResources gate
// can pass again. The bucket list grows to the largest key parked so far
// — only TOPO-AWARE-P ever pays for it.
func (c *Core) park(e *entry) {
	e.parked = true
	buckets := &c.parkedSingle
	if !e.job.SingleNode {
		buckets = &c.parkedMulti
	}
	g := e.job.GPUs
	if g >= len(*buckets) {
		*buckets = append(*buckets, make([][]parkedEntry, g+1-len(*buckets))...)
	}
	(*buckets)[g] = heap.Push((*buckets)[g], parkedEntry{Key: c.key(e), Val: *e}, nil)
	c.nParked++
}

// unpark removes and returns the entry at index i of the bucket under
// key. An emptied bucket keeps its array for the next park.
func (c *Core) unpark(buckets [][]parkedEntry, key, i int) entry {
	var it parkedEntry
	buckets[key], it = heap.Remove(buckets[key], i, nil)
	c.nParked--
	return it.Val
}

// tryPlace attempts to place d's job according to the policy, committing
// the allocation on success, and writes the outcome into d: the placement,
// or the postponement reason. An allocation the state refuses changes
// nothing and is the core's fault (Fault).
func (c *Core) tryPlace(d *Decision) {
	j := d.Job
	placement, reason := c.place.attempt(j)
	if placement == nil {
		d.Reason = reason
		return
	}
	slot, err := c.state.AllocateSlot(j.ID, placement.GPUs, placement.BusDemand, j.Traits())
	if err != nil {
		c.fail(d, fmt.Errorf("schedcore: placing %s: %w", j.ID, err))
		return
	}
	c.addRunning(j, slot)
	d.place(placement, slot)
}

// place turns d from a postponement into the placement of its job into
// the allocation slot.
func (d *Decision) place(p *core.Placement, slot int32) {
	d.Placement, d.Slot = p, slot
	d.Postponed, d.Reason = false, ""
	d.SLOViolated = p.Utility < d.Job.MinUtility
}

// estimateDemand conservatively estimates the job's shared-bus demand
// using its best-case allocation on the empty topology.
func estimateDemand(j *job.Job, st *cluster.State) float64 {
	topo := st.Topology()
	g := j.GPUs
	if n := topo.NumGPUs(); g > n {
		g = n
	}
	return perfmodel.BusDemand(j.Model, j.BatchSize, topo, topo.BestAllocation(g))
}
