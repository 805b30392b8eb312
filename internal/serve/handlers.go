package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"gputopo/internal/perfmodel"
	"gputopo/internal/serveapi"
)

// Handler wires the /v1 HTTP API. Every response body is a serveapi
// type; every non-2xx response is the uniform error envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleRelease)
	mux.HandleFunc("GET /v1/decisions", s.handleDecisions)
	mux.HandleFunc("GET /v1/state", s.handleState)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleSubmit is POST /v1/jobs: decode, fast-fail obvious rejects,
// then enqueue into the batching loop and answer with this job's
// decision once its record is durable.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req serveapi.JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		serveapi.WriteError(w, http.StatusBadRequest, serveapi.CodeInvalidJSON, "invalid job JSON: %v", err)
		return
	}
	// Model parse is read-only: reject before taking a loop slot. The
	// loop re-validates the full job either way.
	if req.Model != "" {
		if _, err := perfmodel.ParseNN(req.Model); err != nil {
			serveapi.WriteError(w, http.StatusBadRequest, serveapi.CodeInvalidJob, "%v", err)
			return
		}
	}
	if s.draining.Load() {
		serveapi.WriteError(w, http.StatusServiceUnavailable, serveapi.CodeDraining, "server is draining; not admitting jobs")
		return
	}
	o := &op{kind: opSubmit, req: req, done: make(chan struct{})}
	if !s.submit(o) {
		serveapi.WriteError(w, http.StatusServiceUnavailable, serveapi.CodeDraining, "server is shut down")
		return
	}
	if o.errCode != "" {
		if o.errCode == serveapi.CodeQueueFull {
			serveapi.WriteRetryAfter(w, o.retryAfter, "%s", o.errMsg)
			return
		}
		serveapi.WriteError(w, o.status, o.errCode, "%s", o.errMsg)
		return
	}
	serveapi.WriteJSON(w, o.jobResp)
}

// handleRelease is DELETE /v1/jobs/{id}: release a running job (the
// batch's round lets waiting jobs take the freed GPUs) or withdraw a
// queued one. Releases are allowed while draining so work can finish.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	o := &op{kind: opRelease, id: r.PathValue("id"), done: make(chan struct{})}
	if !s.submit(o) {
		serveapi.WriteError(w, http.StatusServiceUnavailable, serveapi.CodeDraining, "server is shut down")
		return
	}
	if o.errCode != "" {
		serveapi.WriteError(w, o.status, o.errCode, "%s", o.errMsg)
		return
	}
	serveapi.WriteJSON(w, o.relResp)
}

// handleDecisions is GET /v1/decisions?after=S&limit=N: cursor-paged
// reads of the decision ring, oldest first, with explicit truncation
// reporting when the cursor points below the ring's surviving window.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	limit := decisionLogCap
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			serveapi.WriteError(w, http.StatusBadRequest, serveapi.CodeInvalidParam, "limit %q must be an integer >= 1", q)
			return
		}
		if n < limit {
			limit = n
		}
	}
	after := 0
	if q := r.URL.Query().Get("after"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			serveapi.WriteError(w, http.StatusBadRequest, serveapi.CodeInvalidParam, "after %q must be an integer >= 0", q)
			return
		}
		after = n
	}
	var resp serveapi.DecisionsResponse
	if !s.do(func() { resp = s.decisionsPage(after, limit) }) {
		serveapi.WriteError(w, http.StatusServiceUnavailable, serveapi.CodeDraining, "server is shut down")
		return
	}
	serveapi.WriteJSON(w, resp)
}

// decisionsPage builds one page: records with seq > after, oldest
// first, at most limit. Runs on the writer goroutine.
func (s *Server) decisionsPage(after, limit int) serveapi.DecisionsResponse {
	resp := serveapi.DecisionsResponse{Decisions: []serveapi.DecisionRecord{}, NextAfter: after}
	n := len(s.decisions)
	if n == 0 {
		return resp
	}
	oldest := s.decisions[s.decHead%n].Seq
	resp.OldestSeq = oldest
	resp.LatestSeq = s.decSeq
	// Records in (after, oldest) were dropped from the ring: the cursor
	// missed them, and the client deserves to know rather than silently
	// skipping the gap.
	resp.Truncated = after < oldest-1
	start := 0
	if after >= oldest {
		start = after - oldest + 1
	}
	for i := start; i < n && len(resp.Decisions) < limit; i++ {
		resp.Decisions = append(resp.Decisions, s.decisions[(s.decHead+i)%n])
	}
	if len(resp.Decisions) > 0 {
		resp.NextAfter = resp.Decisions[len(resp.Decisions)-1].Seq
	}
	return resp
}

// handleState is GET /v1/state.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	var resp serveapi.StateResponse
	ok := s.do(func() { resp = s.stateSnapshot() })
	if !ok {
		serveapi.WriteError(w, http.StatusServiceUnavailable, serveapi.CodeDraining, "server is shut down")
		return
	}
	serveapi.WriteJSON(w, resp)
}

// logStats gauges the event log (nil when in-memory). Runs on the
// writer goroutine.
func (s *Server) logStats() *serveapi.LogStats {
	if s.log == nil {
		return nil
	}
	return &serveapi.LogStats{
		Records:            s.log.Records(),
		SinceSnapshot:      s.log.SinceRewrite(),
		BytesSinceSnapshot: s.log.BytesSinceRewrite(),
		Snapshots:          s.snapshots,
		ReplayedAtBoot:     s.replayed,
		Syncs:              s.log.Syncs(),
	}
}

// stateSnapshot assembles the full GET /v1/state response. Must run on
// the writer goroutine; the sharded MultiServer calls it per domain and
// merges.
func (s *Server) stateSnapshot() serveapi.StateResponse {
	st := s.core.State()
	topo := st.Topology()
	stats := s.combinedStats()
	resp := serveapi.StateResponse{
		Topology:   s.topoKey,
		Policy:     s.core.Policy().String(),
		Machines:   topo.NumMachines(),
		GPUs:       topo.NumGPUs(),
		FreeGPUs:   st.FreeGPUCount(),
		UptimeSec:  time.Since(s.started).Seconds(),
		ClockSec:   s.now(),
		Durable:    s.log != nil,
		Draining:   s.draining.Load(),
		MaxQueue:   s.cfg.MaxQueue,
		Running:    []serveapi.RunningEntry{},
		Queue:      []serveapi.QueuedEntry{},
		Fragments:  st.Fragmentation(),
		Decisions:  len(s.decisions),
		Discipline: s.core.Discipline(),
		Preemption: s.core.PreemptionEnabled(),
		Stats: serveapi.SchedStats{
			Decisions:       stats.Decisions,
			Placements:      stats.Placements,
			Postponements:   stats.Postponements,
			SLOViolations:   stats.SLOViolations,
			WakeSkips:       stats.WakeSkips,
			Preemptions:     stats.Preemptions,
			Evictions:       stats.Evictions,
			MeanDecisionUs:  float64(stats.MeanDecisionTime()) / float64(time.Microsecond),
			MaxDecisionUs:   float64(stats.MaxDecision) / float64(time.Microsecond),
			TotalDecisionMs: float64(stats.DecisionTime) / float64(time.Millisecond),
		},
		Log: s.logStats(),
		// The cache runs cold after a recovery, so its traffic is
		// volatile by design: statsBase carries none, and these are the
		// live core's counters.
		PlaceCache: &serveapi.PlaceCacheStats{
			Hits:      stats.PlaceCacheHits,
			Misses:    stats.PlaceCacheMisses,
			Evictions: stats.PlaceCacheEvictions,
		},
	}
	for _, id := range st.Jobs() {
		resp.Running = append(resp.Running, serveapi.RunningEntry{ID: id, GPUs: st.Allocation(id).GPUs})
	}
	for _, qj := range s.core.Queued() {
		resp.Queue = append(resp.Queue, serveapi.QueuedEntry{
			ID: qj.ID, GPUs: qj.GPUs, MinUtility: qj.MinUtility, Arrival: qj.Arrival,
			Priority: qj.Priority,
		})
	}
	for m := 0; m < topo.NumMachines(); m++ {
		resp.Bandwidth = append(resp.Bandwidth, serveapi.BandwidthEntry{Machine: m, FreeGBs: st.FreeBusBandwidth(m)})
	}
	return resp
}
