package serve

import (
	"fmt"
	"time"

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
func (s *Server) applyRecord(rec eventlog.Record) error {
	switch rec.Type {
	case eventlog.TypeSnapshot:
		if s.replaySaw {
			return fmt.Errorf("serve: snapshot record is not first in the log")
		}
		if rec.Snapshot == nil {
			return fmt.Errorf("serve: snapshot record without payload")
		}
		if err := s.restoreSnapshot(rec.Snapshot); err != nil {
			return err
		}
		if rec.Snapshot.ClockSec > s.replayMax {
			s.replayMax = rec.Snapshot.ClockSec
		}
	case eventlog.TypeSubmit:
		if rec.Job == nil {
			return fmt.Errorf("serve: submit record without job")
		}
		j, err := rec.Job.Job()
		if err != nil {
			return fmt.Errorf("serve: replaying submit %q: %w", rec.Job.ID, err)
		}
		s.clk.Set(j.Arrival)
		if err := s.core.Submit(j); err != nil {
			return fmt.Errorf("serve: replaying submit %q: %w", j.ID, err)
		}
		s.jobs[j.ID] = j
	case eventlog.TypeRelease:
		if err := s.core.Release(rec.JobID); err != nil {
			return fmt.Errorf("serve: replaying release %q: %w", rec.JobID, err)
		}
		delete(s.jobs, rec.JobID)
	case eventlog.TypeWithdraw:
		if !s.core.Withdraw(rec.JobID) {
			return fmt.Errorf("serve: replaying withdraw %q: job not queued", rec.JobID)
		}
		delete(s.jobs, rec.JobID)
	case eventlog.TypeRound:
		// Append-order within a batch is submit/release records, then the
		// round, then its place records; a new round with unconsumed
		// expectations means place records vanished mid-log — impossible
		// short of corruption the framing missed.
		if len(s.replayExpect) > 0 {
			return fmt.Errorf("serve: replay: round at t=%.3f follows %d unmatched place records", rec.Time, len(s.replayExpect))
		}
		s.clk.Set(rec.Time)
		for _, r := range s.appendDecisions(s.core.Schedule()) {
			if r.Placed || r.Evicted {
				s.replayExpect = append(s.replayExpect, r)
			}
		}
	case eventlog.TypePlace, eventlog.TypeEvict:
		if rec.Decision == nil {
			return fmt.Errorf("serve: %s record without decision", rec.Type)
		}
		if len(s.replayExpect) == 0 {
			return fmt.Errorf("serve: replay diverged: log has %s %s (seq %d) but the recomputed round produced nothing more", rec.Type, rec.Decision.JobID, rec.Decision.Seq)
		}
		got := s.replayExpect[0]
		s.replayExpect = s.replayExpect[1:]
		if !sameDecision(got, *rec.Decision) {
			return fmt.Errorf("serve: replay diverged: log places %s (seq %d) on %v, replay places %s (seq %d) on %v",
				rec.Decision.JobID, rec.Decision.Seq, rec.Decision.GPUs, got.JobID, got.Seq, got.GPUs)
		}
	default:
		return fmt.Errorf("serve: unknown event-log record type %q", rec.Type)
	}
	if rec.Time > s.replayMax {
		s.replayMax = rec.Time
	}
	s.replaySaw = true
	s.replayed++
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
// restored, never recomputed), the wait queue in order, the decision
// ring, the sequence counter, the stats base and the clock.
func (s *Server) restoreSnapshot(sn *eventlog.Snapshot) error {
	s.statsBase = schedcore.Stats{
		Decisions:     sn.Stats.Decisions,
		Placements:    sn.Stats.Placements,
		Postponements: sn.Stats.Postponements,
		SLOViolations: sn.Stats.SLOViolations,
		WakeSkips:     sn.Stats.WakeSkips,
		Preemptions:   sn.Stats.Preemptions,
		Evictions:     sn.Stats.Evictions,
		DecisionTime:  time.Duration(sn.Stats.DecisionTimeNs),
		MaxDecision:   time.Duration(sn.Stats.MaxDecisionNs),
	}
	s.decSeq = sn.DecSeq
	s.decisions = append([]serveapi.DecisionRecord(nil), sn.Decisions...)
	s.decHead = 0
	for _, rj := range sn.Running {
		j, err := rj.Job.Job()
		if err != nil {
			return fmt.Errorf("serve: snapshot running job %q: %w", rj.Job.ID, err)
		}
		// Restore through the core (not the raw cluster state) so its
		// running registry is rebuilt — preemption selects victims from
		// that registry, and a job restored behind its back could never
		// be evicted.
		if err := s.core.Restore(j, rj.GPUs, rj.Bandwidth); err != nil {
			return fmt.Errorf("serve: snapshot running job %q: %w", j.ID, err)
		}
		s.jobs[j.ID] = j
	}
	for _, spec := range sn.Queued {
		j, err := spec.Job()
		if err != nil {
			return fmt.Errorf("serve: snapshot queued job %q: %w", spec.ID, err)
		}
		s.clk.Set(j.Arrival)
		if err := s.core.Submit(j); err != nil {
			return fmt.Errorf("serve: snapshot queued job %q: %w", j.ID, err)
		}
		s.jobs[j.ID] = j
	}
	s.clockBase = sn.ClockSec
	return nil
}

// maybeSnapshot rewrites the log once enough records accumulated past
// the last snapshot, keeping replay bounded.
func (s *Server) maybeSnapshot(now float64) {
	if s.log == nil || s.logErr != nil || s.cfg.SnapshotEvery <= 0 {
		return
	}
	if s.log.SinceRewrite() >= s.cfg.SnapshotEvery {
		s.writeSnapshot(now)
	}
}

// writeSnapshot captures the full state and atomically truncates the
// log to it. Must run on the writer goroutine (or after the loop
// stopped). Failures are sticky via logErr.
func (s *Server) writeSnapshot(now float64) {
	if s.log == nil || s.logErr != nil {
		return
	}
	stats := s.combinedStats()
	sn := &eventlog.Snapshot{
		ClockSec: now,
		DecSeq:   s.decSeq,
		Stats: eventlog.SnapStats{
			Decisions:      stats.Decisions,
			Placements:     stats.Placements,
			Postponements:  stats.Postponements,
			SLOViolations:  stats.SLOViolations,
			WakeSkips:      stats.WakeSkips,
			Preemptions:    stats.Preemptions,
			Evictions:      stats.Evictions,
			DecisionTimeNs: int64(stats.DecisionTime),
			MaxDecisionNs:  int64(stats.MaxDecision),
		},
	}
	st := s.core.State()
	for _, id := range st.Jobs() {
		alloc := st.Allocation(id)
		j := s.jobs[id]
		if j == nil || alloc == nil {
			s.logErr = fmt.Errorf("serve: snapshot: running job %q has no tracked spec", id)
			return
		}
		sn.Running = append(sn.Running, eventlog.RunningJob{
			Job:       serveapi.SpecOf(j),
			GPUs:      append([]int(nil), alloc.GPUs...),
			Bandwidth: alloc.Bandwidth,
		})
	}
	for _, j := range s.core.Queued() {
		sn.Queued = append(sn.Queued, serveapi.SpecOf(j))
	}
	n := len(s.decisions)
	for i := 0; i < n; i++ {
		sn.Decisions = append(sn.Decisions, s.decisions[(s.decHead+i)%n])
	}
	if err := s.log.Rewrite(eventlog.Record{Type: eventlog.TypeSnapshot, Time: now, Snapshot: sn}); err != nil {
		s.logErr = err
		return
	}
	s.snapshots++
}
