package serve

import (
	"fmt"

	"gputopo/internal/eventlog"
	"gputopo/internal/schedcore"
	"gputopo/internal/serveapi"
)

// applyRecord replays one event-log record into the core. Submits,
// releases and withdrawals re-drive the same mutations the live path
// ran; a round record re-runs Schedule at exactly the batch boundary
// live traffic produced; the place records that follow are checked
// against the recomputed placements — any divergence means the log and
// the policies disagree, and recovery fails loudly rather than serve a
// cluster whose journal does not describe it.
func (d *domain) applyRecord(rec eventlog.Record) error {
	switch rec.Type {
	case eventlog.TypeSnapshot:
		if d.replaySaw {
			return fmt.Errorf("serve: snapshot record is not first in the log")
		}
		if rec.Snapshot == nil {
			return fmt.Errorf("serve: snapshot record without payload")
		}
		if err := d.restoreSnapshot(rec.Snapshot); err != nil {
			return err
		}
		if rec.Snapshot.ClockSec > d.replayMax {
			d.replayMax = rec.Snapshot.ClockSec
		}
	case eventlog.TypeSubmit:
		if rec.Job == nil {
			return fmt.Errorf("serve: submit record without job")
		}
		j, err := rec.Job.Job()
		if err != nil {
			return fmt.Errorf("serve: replaying submit %q: %w", rec.Job.ID, err)
		}
		d.clk.Set(j.Arrival)
		if err := d.core.Submit(j); err != nil {
			return fmt.Errorf("serve: replaying submit %q: %w", j.ID, err)
		}
		d.jobs[j.ID] = j
	case eventlog.TypeRelease:
		if err := d.core.Release(rec.JobID); err != nil {
			return fmt.Errorf("serve: replaying release %q: %w", rec.JobID, err)
		}
		delete(d.jobs, rec.JobID)
	case eventlog.TypeWithdraw:
		if !d.core.Withdraw(rec.JobID) {
			return fmt.Errorf("serve: replaying withdraw %q: job not queued", rec.JobID)
		}
		delete(d.jobs, rec.JobID)
	case eventlog.TypeRound:
		// Append-order within a batch is submit/release records, then the
		// round, then its place records; a new round with unconsumed
		// expectations means place records vanished mid-log — impossible
		// short of corruption the framing missed.
		if len(d.replayExpect) > 0 {
			return fmt.Errorf("serve: replay: round at t=%.3f follows %d unmatched place records", rec.Time, len(d.replayExpect))
		}
		d.clk.Set(rec.Time)
		for _, r := range d.appendDecisions(d.core.Schedule()) {
			if r.Placed || r.Evicted {
				d.replayExpect = append(d.replayExpect, r)
			}
		}
	case eventlog.TypePlace, eventlog.TypeEvict:
		if rec.Decision == nil {
			return fmt.Errorf("serve: %s record without decision", rec.Type)
		}
		if len(d.replayExpect) == 0 {
			return fmt.Errorf("serve: replay diverged: log has %s %s (seq %d) but the recomputed round produced nothing more", rec.Type, rec.Decision.JobID, rec.Decision.Seq)
		}
		got := d.replayExpect[0]
		d.replayExpect = d.replayExpect[1:]
		if !sameDecision(got, *rec.Decision) {
			return fmt.Errorf("serve: replay diverged: log places %s (seq %d) on %v, replay places %s (seq %d) on %v",
				rec.Decision.JobID, rec.Decision.Seq, rec.Decision.GPUs, got.JobID, got.Seq, got.GPUs)
		}
	default:
		return fmt.Errorf("serve: unknown event-log record type %q", rec.Type)
	}
	if rec.Time > d.replayMax {
		d.replayMax = rec.Time
	}
	d.replaySaw = true
	d.replayed++
	return nil
}

// sameDecision compares the deterministic identity of a placement or an
// eviction notice.
func sameDecision(a, b serveapi.DecisionRecord) bool {
	if a.Seq != b.Seq || a.JobID != b.JobID || a.Placed != b.Placed || len(a.GPUs) != len(b.GPUs) {
		return false
	}
	if a.Evicted != b.Evicted || a.PreemptedBy != b.PreemptedBy {
		return false
	}
	for i := range a.GPUs {
		if a.GPUs[i] != b.GPUs[i] {
			return false
		}
	}
	return true
}

// restoreSnapshot rebuilds explicit state: exact allocations for running
// jobs (placements depend on the full truncated history, so they are
// restored, never recomputed), the wait queue in order with each job's
// rounds waited, postponements and parked flag, the decision ring, the
// sequence counter, the stats base and the clock.
func (d *domain) restoreSnapshot(sn *eventlog.Snapshot) error {
	d.statsBase = schedcore.Stats{
		Decisions:     sn.Stats.Decisions,
		Placements:    sn.Stats.Placements,
		Postponements: sn.Stats.Postponements,
		SLOViolations: sn.Stats.SLOViolations,
		WakeSkips:     sn.Stats.WakeSkips,
		Preemptions:   sn.Stats.Preemptions,
		Evictions:     sn.Stats.Evictions,
	}
	d.decSeq = sn.DecSeq
	d.decisions = append([]serveapi.DecisionRecord(nil), sn.Decisions...)
	d.decHead = 0
	for _, rj := range sn.Running {
		j, err := rj.Job.Job()
		if err != nil {
			return fmt.Errorf("serve: snapshot running job %q: %w", rj.Job.ID, err)
		}
		// Restore through the core (not the raw cluster state) so its
		// running registry is rebuilt — preemption selects victims from
		// that registry, and a job restored behind its back could never
		// be evicted.
		if err := d.core.Restore(j, rj.GPUs, rj.Bandwidth); err != nil {
			return fmt.Errorf("serve: snapshot running job %q: %w", j.ID, err)
		}
		d.jobs[j.ID] = j
	}
	if len(sn.QueueState) > 0 && len(sn.QueueState) != len(sn.Queued) {
		return fmt.Errorf("serve: snapshot has %d queue states for %d queued jobs", len(sn.QueueState), len(sn.Queued))
	}
	for i, spec := range sn.Queued {
		j, err := spec.Job()
		if err != nil {
			return fmt.Errorf("serve: snapshot queued job %q: %w", spec.ID, err)
		}
		q := schedcore.QueuedEntry{Job: j}
		if len(sn.QueueState) > 0 {
			qs := sn.QueueState[i]
			q.Waited, q.Postponed, q.Parked = qs.Waited, qs.Postponed, qs.Parked
		}
		d.clk.Set(j.Arrival)
		if err := d.core.RestoreQueued(q); err != nil {
			return fmt.Errorf("serve: snapshot queued job %q: %w", j.ID, err)
		}
		d.jobs[j.ID] = j
	}
	d.clockBase = sn.ClockSec
	return nil
}

// maybeSnapshot rewrites the log once enough records accumulated past
// the last snapshot, keeping replay bounded.
func (d *domain) maybeSnapshot(now float64) {
	if d.log == nil || d.logErr != nil || d.cfg.SnapshotEvery <= 0 {
		return
	}
	if d.log.SinceRewrite() >= d.cfg.SnapshotEvery {
		d.writeSnapshot(now)
	}
}

// writeSnapshot captures the full state and atomically truncates the
// log to it. Must run on the writer goroutine (or after the loop
// stopped). Failures are sticky via logErr.
func (d *domain) writeSnapshot(now float64) {
	if d.log == nil || d.logErr != nil {
		return
	}
	stats := d.combinedStats()
	sn := &eventlog.Snapshot{
		ClockSec: now,
		DecSeq:   d.decSeq,
		Stats: eventlog.SnapStats{
			Decisions:     stats.Decisions,
			Placements:    stats.Placements,
			Postponements: stats.Postponements,
			SLOViolations: stats.SLOViolations,
			WakeSkips:     stats.WakeSkips,
			Preemptions:   stats.Preemptions,
			Evictions:     stats.Evictions,
		},
	}
	st := d.core.State()
	for _, id := range st.Jobs() {
		alloc := st.Allocation(id)
		j := d.jobs[id]
		if j == nil || alloc == nil {
			d.logErr = fmt.Errorf("serve: snapshot: running job %q has no tracked spec", id)
			return
		}
		sn.Running = append(sn.Running, eventlog.RunningJob{
			Job:       serveapi.SpecOf(j),
			GPUs:      append([]int(nil), alloc.GPUs...),
			Bandwidth: alloc.Bandwidth,
		})
	}
	for _, q := range d.core.QueueState() {
		sn.Queued = append(sn.Queued, serveapi.SpecOf(q.Job))
		sn.QueueState = append(sn.QueueState, eventlog.QueuedState{Waited: q.Waited, Postponed: q.Postponed, Parked: q.Parked})
	}
	n := len(d.decisions)
	for i := 0; i < n; i++ {
		sn.Decisions = append(sn.Decisions, d.decisions[(d.decHead+i)%n])
	}
	if err := d.log.Rewrite(eventlog.Record{Type: eventlog.TypeSnapshot, Time: now, Snapshot: sn}); err != nil {
		d.logErr = err
		return
	}
	d.snapshots++
}
