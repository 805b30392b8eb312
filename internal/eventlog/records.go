package eventlog

import "gputopo/internal/serveapi"

// Record types. The log is event-granular: submits, releases and
// withdrawals record what the server accepted; a round record marks
// every Schedule call the serving loop ran (so replay batches exactly
// like live traffic did); place records journal the resulting
// placements for divergence checking; a snapshot record — always alone,
// always first — summarizes everything truncated before it.
const (
	// TypeSubmit: a job was accepted into the scheduler. Job carries the
	// fully resolved spec including the stamped arrival.
	TypeSubmit = "submit"
	// TypePlace: a scheduling round placed a job. Decision carries the
	// ring record (seq, GPUs, utility). Replay recomputes placements by
	// re-driving the core, then verifies them against these records —
	// any divergence fails recovery loudly.
	TypePlace = "place"
	// TypeEvict: a scheduling round preempted a running job — Decision
	// carries the eviction notice (victim ID, freed GPUs, preemptor).
	// Like TypePlace, replay recomputes evictions by re-driving the core
	// and verifies them against these records.
	TypeEvict = "evict"
	// TypeRelease: a running job was released; its GPUs freed.
	TypeRelease = "release"
	// TypeWithdraw: a still-queued job was withdrawn.
	TypeWithdraw = "withdraw"
	// TypeRound: the serving loop ran one Schedule call over the batch
	// of events since the previous round record.
	TypeRound = "round"
	// TypeSnapshot: full state summary; Rewrite leaves exactly one as
	// the log's first record.
	TypeSnapshot = "snapshot"
)

// Record is one event-log entry. Exactly the fields for its Type are
// set; the rest stay zero and omitted from the JSON.
type Record struct {
	Type string  `json:"type"`
	Time float64 `json:"time_s,omitempty"`
	// Job is the submitted job (TypeSubmit).
	Job *serveapi.JobSpec `json:"job,omitempty"`
	// JobID names the affected job (TypeRelease, TypeWithdraw).
	JobID string `json:"job_id,omitempty"`
	// Decision is the placement the round produced (TypePlace).
	Decision *serveapi.DecisionRecord `json:"decision,omitempty"`
	// Snapshot is the full-state summary (TypeSnapshot).
	Snapshot *Snapshot `json:"snapshot,omitempty"`
}

// Snapshot captures everything a restarted server needs that the
// truncated history would have rebuilt: the cluster allocations, the
// wait queue in order, the decision ring, the monotonic decision seq,
// the scheduler's accumulated stats and the clock.
type Snapshot struct {
	// ClockSec is the server clock at the snapshot; the restarted clock
	// resumes from the log's highest timestamp so arrivals stay
	// monotonic across restarts.
	ClockSec float64 `json:"clock_s"`
	// DecSeq is the last assigned decision sequence number.
	DecSeq int `json:"dec_seq"`
	// Stats carries the scheduler counters accumulated before the
	// snapshot (replay adds post-snapshot rounds on top).
	Stats SnapStats `json:"stats"`
	// Running lists the allocated jobs with their exact placements,
	// sorted by job ID (restore order does not matter — allocations are
	// explicit — but determinism keeps snapshots comparable).
	Running []RunningJob `json:"running,omitempty"`
	// Queued lists the waiting jobs in queue order.
	Queued []serveapi.JobSpec `json:"queued,omitempty"`
	// Decisions is the decision ring, oldest first.
	Decisions []serveapi.DecisionRecord `json:"decisions,omitempty"`
}

// RunningJob is one allocated job in a snapshot.
type RunningJob struct {
	Job serveapi.JobSpec `json:"job"`
	// GPUs is the exact allocation to restore.
	GPUs []int `json:"gpus"`
	// Bandwidth is the shared-bus demand (GB/s) committed on placement.
	Bandwidth float64 `json:"bandwidth_gbs"`
}

// SnapStats mirrors schedcore.Stats' deterministic counters for the
// snapshot. The wall-clock decision timers are not journaled: a restarted
// server starts them at zero, like its uptime. Snapshots written before
// they were dropped still carry decision_time_ns and max_decision_ns,
// which decoding ignores.
type SnapStats struct {
	Decisions     int `json:"decisions"`
	Placements    int `json:"placements"`
	Postponements int `json:"postponements"`
	SLOViolations int `json:"slo_violations"`
	WakeSkips     int `json:"wake_skips"`
	Preemptions   int `json:"preemptions,omitempty"`
	Evictions     int `json:"evictions,omitempty"`
}
