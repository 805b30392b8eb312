// Package serveapi defines the wire types of toposerve's /v1 HTTP API:
// every request, response and error body exchanged between the server
// (internal/serve), the typed Go client (internal/serveapi/client), the
// durable event log (internal/eventlog) and the load generator
// (cmd/topoload). Handlers never hand-roll JSON — they marshal these
// types — so the wire format is defined exactly once and exercised from
// both sides by the round-trip tests.
//
// Errors are uniform across every endpoint: a non-2xx response always
// carries the envelope
//
//	{"error": {"code": "job_not_found", "message": "..."}}
//
// with a stable machine-readable code (the Code* constants) and a
// human-readable message. 429 responses additionally set a Retry-After
// header (seconds).
package serveapi

import (
	"fmt"

	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
)

// Error codes carried in the error envelope. Clients branch on these,
// never on message text.
const (
	// CodeInvalidJSON: the request body was not valid JSON for the
	// endpoint's request type (400).
	CodeInvalidJSON = "invalid_json"
	// CodeInvalidJob: the job definition failed validation — unknown
	// model, non-positive GPU count, conflicting constraints (400).
	CodeInvalidJob = "invalid_job"
	// CodeJobExists: a job with the submitted ID is already queued or
	// running (409).
	CodeJobExists = "job_exists"
	// CodeJobNotFound: no queued or running job has the ID (404).
	CodeJobNotFound = "job_not_found"
	// CodeQueueFull: admission control rejected the submission because
	// the wait queue is at its depth limit; retry after the Retry-After
	// header's delay (429).
	CodeQueueFull = "queue_full"
	// CodeDraining: the server is shutting down gracefully and no longer
	// admits writes (503).
	CodeDraining = "draining"
	// CodeInvalidParam: a query parameter (limit, after) failed to parse
	// or was out of range (400).
	CodeInvalidParam = "invalid_param"
	// CodeInternal: an unexpected server-side failure (500).
	CodeInternal = "internal"
)

// ErrorBody is the inner error object of the envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the uniform error envelope of every non-2xx response.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// JobRequest is the POST /v1/jobs payload. Field names mirror the
// prototype's JSON manifests (§5.1). Zero values default server-side:
// empty model → AlexNet, zero batch size → 1, empty ID → generated.
type JobRequest struct {
	ID            string  `json:"id,omitempty"`
	Model         string  `json:"model,omitempty"`
	BatchSize     int     `json:"batch_size,omitempty"`
	GPUs          int     `json:"gpus"`
	MinUtility    float64 `json:"min_utility,omitempty"`
	Iterations    int     `json:"iterations,omitempty"`
	SingleNode    *bool   `json:"single_node,omitempty"`
	AntiCollocate bool    `json:"anti_collocate,omitempty"`
	ModelParallel bool    `json:"model_parallel,omitempty"`
	// Priority ranks the job under the priority queue disciplines; with
	// preemption enabled a positive-priority job may evict strictly
	// lower-priority running jobs. 0 (the default) is the ordinary
	// training class.
	Priority int `json:"priority,omitempty"`
}

// JobSpec is a fully resolved job as the server accepted it: the request
// fields plus the arrival stamp the scheduler saw. It is the submit
// record of the event log and the queued-job entry of snapshots, and
// must rebuild the exact job on replay.
type JobSpec struct {
	JobRequest
	Arrival float64 `json:"arrival_s"`
}

// Job materializes the spec into a scheduler job, applying the same
// defaults the live submit path applies. The ID must already be
// resolved (non-empty).
func (s JobSpec) Job() (*job.Job, error) {
	model := perfmodel.AlexNet
	if s.Model != "" {
		var err error
		if model, err = perfmodel.ParseNN(s.Model); err != nil {
			return nil, err
		}
	}
	batch := s.BatchSize
	if batch == 0 {
		batch = 1
	}
	j := job.New(s.ID, model, batch, s.GPUs, s.MinUtility, s.Arrival)
	if s.Iterations > 0 {
		j.Iterations = s.Iterations
	}
	if s.SingleNode != nil {
		j.SingleNode = *s.SingleNode
	}
	j.AntiCollocate = s.AntiCollocate
	if s.ModelParallel {
		j.Parallelism = perfmodel.ModelParallel
	}
	j.Priority = s.Priority
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// SpecOf captures a scheduler job back into its wire spec — the inverse
// of JobSpec.Job, used when the server journals an accepted job.
func SpecOf(j *job.Job) JobSpec {
	single := j.SingleNode
	return JobSpec{
		JobRequest: JobRequest{
			ID:            j.ID,
			Model:         j.Model.String(),
			BatchSize:     j.BatchSize,
			GPUs:          j.GPUs,
			MinUtility:    j.MinUtility,
			Iterations:    j.Iterations,
			SingleNode:    &single,
			AntiCollocate: j.AntiCollocate,
			ModelParallel: j.Parallelism == perfmodel.ModelParallel,
			Priority:      j.Priority,
		},
		Arrival: j.Arrival,
	}
}

// JobResponse answers POST /v1/jobs with the submitted job's decision.
type JobResponse struct {
	ID            string  `json:"id"`
	Status        string  `json:"status"` // "placed" or "queued"
	GPUs          []int   `json:"gpus,omitempty"`
	Utility       float64 `json:"utility,omitempty"`
	Reason        string  `json:"reason,omitempty"`
	SLOViolated   bool    `json:"slo_violated,omitempty"`
	Time          float64 `json:"time_s"`
	QueuePosition int     `json:"queue_position,omitempty"` // 1-based when queued
}

// ReleaseResponse answers DELETE /v1/jobs/{id}.
type ReleaseResponse struct {
	ID string `json:"id"`
	// Status is "released" (the job was running; its GPUs are free) or
	// "withdrawn" (it was still queued).
	Status string `json:"status"`
	// Unblocked lists jobs the release let the scheduler place — the
	// wake-up index resolves exactly these instead of walking the queue.
	Unblocked []string `json:"unblocked,omitempty"`
}

// DecisionRecord is one logged scheduling decision: a placement, a
// postponement, or — under preemption — an eviction notice for a running
// job displaced by a higher-priority placement.
type DecisionRecord struct {
	Seq           int     `json:"seq"`
	Time          float64 `json:"time_s"`
	JobID         string  `json:"job_id"`
	Placed        bool    `json:"placed"`
	GPUs          []int   `json:"gpus,omitempty"`
	Utility       float64 `json:"utility,omitempty"`
	Reason        string  `json:"reason,omitempty"`
	SLOViolated   bool    `json:"slo_violated,omitempty"`
	Postponements int     `json:"postponements,omitempty"`
	// Evicted marks a preemption notice: JobID was evicted from GPUs (the
	// freed positions) to make room for PreemptedBy, and is back in the
	// wait queue. Clients watching /v1/decisions learn about displaced
	// jobs from exactly these records.
	Evicted     bool   `json:"evicted,omitempty"`
	PreemptedBy string `json:"preempted_by,omitempty"`
}

// DecisionsResponse answers GET /v1/decisions?after=S&limit=N: records
// with seq > after, oldest first, at most limit of them. Seq is
// monotonic from 1, so a client pages forward by passing the previous
// response's NextAfter. The ring holds a bounded window — when the
// cursor points below its oldest surviving record, Truncated reports
// the gap explicitly instead of silently skipping it.
type DecisionsResponse struct {
	Decisions []DecisionRecord `json:"decisions"`
	// NextAfter is the cursor for the next page: the seq of the last
	// returned record, or the request's after when the page is empty.
	NextAfter int `json:"next_after"`
	// OldestSeq and LatestSeq bound the ring's surviving window (both 0
	// when no decision was ever logged).
	OldestSeq int `json:"oldest_seq,omitempty"`
	LatestSeq int `json:"latest_seq,omitempty"`
	// Truncated is true when records in (after, OldestSeq) have been
	// dropped from the ring — the client's cursor missed them.
	Truncated bool `json:"truncated,omitempty"`
}

// StateResponse is GET /v1/state: a full snapshot of the cluster and the
// scheduler. UptimeSec and ClockSec are volatile (they restart with the
// process); everything else is durable state the event log reconstructs
// on recovery.
type StateResponse struct {
	Topology   string           `json:"topology"`
	Policy     string           `json:"policy"`
	Machines   int              `json:"machines"`
	GPUs       int              `json:"gpus"`
	FreeGPUs   int              `json:"free_gpus"`
	UptimeSec  float64          `json:"uptime_s"`
	ClockSec   float64          `json:"clock_s"`
	Durable    bool             `json:"durable"`
	Draining   bool             `json:"draining,omitempty"`
	MaxQueue   int              `json:"max_queue,omitempty"`
	Running    []RunningEntry   `json:"running"`
	Queue      []QueuedEntry    `json:"queue"`
	Stats      SchedStats       `json:"stats"`
	Bandwidth  []BandwidthEntry `json:"bus_bandwidth,omitempty"`
	Decisions  int              `json:"decisions_logged"`
	Fragments  float64          `json:"fragmentation"`
	Discipline string           `json:"queue_discipline"`
	// Preemption reports whether topology-aware preemption is enabled.
	Preemption bool `json:"preemption,omitempty"`
	// Log surfaces the event log's compaction metrics (nil when the
	// server is in-memory only). Operational and volatile: a restart
	// resets the counters.
	Log *LogStats `json:"log,omitempty"`
	// Domains lists per-domain summaries when the server runs sharded
	// multi-domain scheduling (one core and one event log per domain);
	// absent on a single-core server. The top-level fields aggregate
	// across domains.
	Domains []DomainState `json:"domains,omitempty"`
	// PlaceCache is never set (the place-cache LRU is gone), so
	// "place_cache" no longer appears on the wire; kept because the frozen
	// cmd/topoperf reads it (docs/performance.md, "The frozen benchmark
	// contract").
	PlaceCache *PlaceCacheStats `json:"place_cache,omitempty"`
}

// PlaceCacheStats is the type of the never-set StateResponse.PlaceCache;
// the frozen cmd/topoperf is its only user (docs/performance.md, "The
// frozen benchmark contract").
type PlaceCacheStats struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Evictions int `json:"evictions"`
}

// LogStats is the event log's operational gauge set: how much history
// has accumulated since the last snapshot compaction, and how the
// group-commit batching is amortizing fsyncs.
type LogStats struct {
	// Records is the total record count currently in the log file.
	Records int `json:"records"`
	// SinceSnapshot counts records appended since the last snapshot
	// rewrite — the replay bound a restart would pay right now.
	SinceSnapshot int `json:"records_since_snapshot"`
	// BytesSinceSnapshot is the on-disk size of those records.
	BytesSinceSnapshot int64 `json:"bytes_since_snapshot"`
	// Snapshots counts snapshot rewrites performed by this process.
	Snapshots int `json:"snapshots"`
	// ReplayedAtBoot is the number of log records replayed when this
	// process started.
	ReplayedAtBoot int `json:"replayed_at_boot"`
	// Syncs counts fsyncs issued (group commits plus rewrites); with
	// fsync batching enabled this grows slower than the batch count.
	Syncs int `json:"syncs"`
}

// DomainState summarizes one scheduling domain of a sharded server.
type DomainState struct {
	Domain    int    `json:"domain"`
	Topology  string `json:"topology"`
	Machines  int    `json:"machines"`
	GPUs      int    `json:"gpus"`
	FreeGPUs  int    `json:"free_gpus"`
	Running   int    `json:"running"`
	Queued    int    `json:"queued"`
	Decisions int    `json:"decisions_logged"`
	// Log is the domain's own event log gauge (each domain journals and
	// replays independently); nil when in-memory.
	Log *LogStats `json:"log,omitempty"`
}

// RunningEntry is one running job in the state snapshot.
type RunningEntry struct {
	ID   string `json:"id"`
	GPUs []int  `json:"gpus"`
}

// QueuedEntry is one waiting job in the state snapshot.
type QueuedEntry struct {
	ID         string  `json:"id"`
	GPUs       int     `json:"gpus"`
	MinUtility float64 `json:"min_utility"`
	Arrival    float64 `json:"arrival_s"`
	Priority   int     `json:"priority,omitempty"`
}

// BandwidthEntry is one machine's free shared-bus bandwidth.
type BandwidthEntry struct {
	Machine int     `json:"machine"`
	FreeGBs float64 `json:"free_gbs"`
}

// SchedStats mirrors schedcore.Stats on the wire. The *DecisionUs/Ms
// fields measure real CPU time and are volatile across a replay; the
// counters are deterministic and must survive recovery exactly.
type SchedStats struct {
	Decisions     int `json:"decisions"`
	Placements    int `json:"placements"`
	Postponements int `json:"postponements"`
	SLOViolations int `json:"slo_violations"`
	// GateSkips is always 0 (the version gate is gone); kept because the
	// frozen cmd/topoperf reads it (docs/performance.md, "The frozen
	// benchmark contract").
	GateSkips       int     `json:"gate_skips"`
	WakeSkips       int     `json:"wake_skips"`
	Preemptions     int     `json:"preemptions,omitempty"`
	Evictions       int     `json:"evictions,omitempty"`
	MeanDecisionUs  float64 `json:"mean_decision_us"`
	MaxDecisionUs   float64 `json:"max_decision_us"`
	TotalDecisionMs float64 `json:"total_decision_ms"`
}

// ClearVolatile zeroes the fields that legitimately differ across a
// restart — process uptime, the wall clock, the decision-latency
// measurements (a replay re-runs the placement policies, reproducing
// every counter but not the nanoseconds they took), and the log gauges
// (sync and snapshot counters are per-process). The kill-and-restart
// e2e pins everything that remains byte-for-byte.
func (s *StateResponse) ClearVolatile() {
	s.UptimeSec = 0
	s.ClockSec = 0
	s.Stats.MeanDecisionUs = 0
	s.Stats.MaxDecisionUs = 0
	s.Stats.TotalDecisionMs = 0
	s.Log = nil
	for i := range s.Domains {
		s.Domains[i].Log = nil
	}
}

// Errorf builds an error envelope.
func Errorf(code, format string, args ...any) ErrorResponse {
	return ErrorResponse{Error: ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}}
}
