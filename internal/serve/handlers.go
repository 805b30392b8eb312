package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"gputopo/internal/schedcore"
	"gputopo/internal/schedcore/domains"
	"gputopo/internal/serveapi"
)

// Handler wires the /v1 HTTP API. Every response body is a serveapi
// type; every non-2xx response is the uniform error envelope; every GPU
// and machine index on the wire is cluster-wide.
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

func writeShutDown(w http.ResponseWriter) {
	serveapi.WriteError(w, http.StatusServiceUnavailable, serveapi.CodeDraining, "server is shut down")
}

// handleSubmit is POST /v1/jobs: decode, resolve the ID in the
// cluster-wide namespace, pick the domain by the admissible
// free-capacity heuristic, enqueue into that domain's batching loop and
// answer with this job's decision once its record is durable.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req serveapi.JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		serveapi.WriteError(w, http.StatusBadRequest, serveapi.CodeInvalidJSON, "invalid job JSON: %v", err)
		return
	}
	if s.draining.Load() {
		serveapi.WriteError(w, http.StatusServiceUnavailable, serveapi.CodeDraining, "server is draining; not admitting jobs")
		return
	}
	o, d, no := s.route(req)
	if no != nil {
		serveapi.WriteError(w, no.status, no.code, "%v", no.err)
		return
	}
	ok := s.doms[d].submit(o)

	s.mu.Lock()
	delete(s.pending, o.id)
	if o.accepted {
		s.home[o.id] = d
	}
	s.mu.Unlock()

	switch {
	case !ok:
		writeShutDown(w)
	case o.errCode == serveapi.CodeQueueFull:
		serveapi.WriteRetryAfter(w, o.retryAfter, "%s", o.errMsg)
	case o.errCode != "":
		serveapi.WriteError(w, o.status, o.errCode, "%s", o.errMsg)
	default:
		o.jobResp.GPUs = domains.GlobalGPUs(s.gpuMaps[d], o.jobResp.GPUs)
		serveapi.WriteJSON(w, o.jobResp)
	}
}

// refusal is a submission the front answers itself, before any domain
// sees it.
type refusal struct {
	status int
	code   string
	err    error
}

// route resolves the request's ID, materializes the job — once: the
// same *job.Job passes the admissibility check here and enters the
// domain's core — and picks its domain, marking the ID in flight.
func (s *Server) route(req serveapi.JobRequest) (*op, int, *refusal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	taken := func(id string) bool {
		_, homed := s.home[id]
		return homed || s.pending[id]
	}
	if req.ID == "" {
		// Generated IDs follow one monotonic counter, skipping IDs a
		// client claimed explicitly.
		for req.ID == "" || taken(req.ID) {
			s.seq++
			req.ID = "job-" + strconv.Itoa(s.seq)
		}
	} else if taken(req.ID) {
		return nil, 0, &refusal{http.StatusConflict, serveapi.CodeJobExists, fmt.Errorf("job %s already exists", req.ID)}
	}
	j, err := serveapi.JobSpec{JobRequest: req}.Job()
	if err != nil {
		return nil, 0, &refusal{http.StatusBadRequest, serveapi.CodeInvalidJob, err}
	}
	d, err := s.router.Route(j)
	if err != nil {
		return nil, 0, &refusal{http.StatusBadRequest, serveapi.CodeInvalidJob, err}
	}
	s.pending[j.ID] = true
	return submitOp(j), d, nil
}

// handleRelease is DELETE /v1/jobs/{id}: forward to the job's home
// domain, which releases a running job (the batch's round lets waiting
// jobs take the freed GPUs) or withdraws a queued one. Releases are
// allowed while draining so work can finish.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	d, ok := s.home[id]
	s.mu.Unlock()
	if !ok {
		serveapi.WriteError(w, http.StatusNotFound, serveapi.CodeJobNotFound, "no queued or running job %q", id)
		return
	}
	o := releaseOp(id)
	if !s.doms[d].submit(o) {
		writeShutDown(w)
		return
	}
	if o.accepted {
		s.mu.Lock()
		delete(s.home, id)
		s.mu.Unlock()
	}
	if o.errCode != "" {
		serveapi.WriteError(w, o.status, o.errCode, "%s", o.errMsg)
		return
	}
	serveapi.WriteJSON(w, o.relResp)
}

// intParam reads an optional integer query parameter in [min, max],
// answering invalid_param itself when it is out of range.
func intParam(w http.ResponseWriter, r *http.Request, name string, def, min, max int, want string) (int, bool) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return def, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < min || n > max {
		serveapi.WriteError(w, http.StatusBadRequest, serveapi.CodeInvalidParam, "%s %q must be an integer %s", name, q, want)
		return 0, false
	}
	return n, true
}

// handleDecisions is GET /v1/decisions?domain=D&after=S&limit=N:
// cursor-paged reads of one domain's decision ring, oldest first, with
// explicit truncation reporting when the cursor points below the ring's
// surviving window. Domains journal and sequence decisions
// independently, so the cursor is per domain; D defaults to 0, the only
// domain of an unsplit server.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	d, ok := intParam(w, r, "domain", 0, 0, len(s.doms)-1, fmt.Sprintf("in [0,%d)", len(s.doms)))
	if !ok {
		return
	}
	limit, ok := intParam(w, r, "limit", decisionLogCap, 1, math.MaxInt, ">= 1")
	if !ok {
		return
	}
	after, ok := intParam(w, r, "after", 0, 0, math.MaxInt, ">= 0")
	if !ok {
		return
	}
	var resp serveapi.DecisionsResponse
	if !s.read(w, s.doms[d], func() { resp = s.doms[d].decisionsPage(after, min(limit, decisionLogCap)) }) {
		return
	}
	for i := range resp.Decisions {
		resp.Decisions[i].GPUs = domains.GlobalGPUs(s.gpuMaps[d], resp.Decisions[i].GPUs)
	}
	serveapi.WriteJSON(w, resp)
}

// handleState is GET /v1/state: every domain's snapshot merged into one
// cluster-wide response. Each snapshot is taken on its own loop, so the
// merge is not atomic across domains.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	snaps := make([]domainState, len(s.doms))
	for d, dom := range s.doms {
		if !s.read(w, dom, func() { snaps[d] = dom.snapshot() }) {
			return
		}
	}
	serveapi.WriteJSON(w, s.mergeStates(snaps))
}

// read runs fn on dom's writer goroutine. When the server is shut down,
// or dom is lost (its rollback failed, so it holds no core to read), it
// answers w 503 itself and returns false.
func (s *Server) read(w http.ResponseWriter, dom *domain, fn func()) bool {
	var lost error
	if !dom.do(func() {
		if lost = dom.lost; lost == nil {
			fn()
		}
	}) {
		writeShutDown(w)
		return false
	}
	if lost != nil {
		serveapi.WriteError(w, http.StatusServiceUnavailable, serveapi.CodeReadOnly, "a scheduling domain lost its state: %v", lost)
		return false
	}
	return true
}

// mergeStates folds the per-domain snapshots into the cluster view:
// counters sum, the clock is the furthest domain's, fragmentation is
// GPU-weighted, and machine/GPU indices translate to global positions.
// A lone domain's numbers pass through bit-exact: the scheduler counters
// are summed as schedcore.Stats and rendered once, and the GPU weight of
// a lone domain is exactly 1.
func (s *Server) mergeStates(snaps []domainState) serveapi.StateResponse {
	out := serveapi.StateResponse{
		Topology:   s.cfg.Spec.Key(),
		Policy:     s.cfg.Policy.String(),
		UptimeSec:  time.Since(s.started).Seconds(),
		Durable:    s.Durable(),
		Draining:   s.draining.Load(),
		MaxQueue:   s.cfg.MaxQueue,
		Running:    []serveapi.RunningEntry{},
		Queue:      []serveapi.QueuedEntry{},
		Discipline: s.discipline,
		Preemption: s.cfg.Preemption,
	}
	var stats schedcore.Stats
	var logs serveapi.LogStats
	for d, sn := range snaps {
		ds := sn.DomainState
		ds.Domain = d
		out.Machines += ds.Machines
		out.GPUs += ds.GPUs
		out.FreeGPUs += ds.FreeGPUs
		out.Decisions += ds.Decisions
		out.ClockSec = max(out.ClockSec, sn.clock)
		out.Fragments += sn.fragments * (float64(ds.GPUs) / float64(s.gpus))
		stats.Add(sn.stats)
		for _, re := range sn.running {
			out.Running = append(out.Running, serveapi.RunningEntry{ID: re.ID, GPUs: domains.GlobalGPUs(s.gpuMaps[d], re.GPUs)})
		}
		out.Queue = append(out.Queue, sn.queue...)
		for k, free := range sn.busFree {
			out.Bandwidth = append(out.Bandwidth, serveapi.BandwidthEntry{Machine: s.machines[d][k], FreeGBs: free})
		}
		if l := ds.Log; l != nil {
			logs.Records += l.Records
			logs.SinceSnapshot += l.SinceSnapshot
			logs.BytesSinceSnapshot += l.BytesSinceSnapshot
			logs.Snapshots += l.Snapshots
			logs.ReplayedAtBoot += l.ReplayedAtBoot
			logs.Syncs += l.Syncs
		}
		if s.split {
			out.Domains = append(out.Domains, ds)
		}
	}
	slices.SortFunc(out.Bandwidth, func(a, b serveapi.BandwidthEntry) int { return a.Machine - b.Machine })
	out.Stats = serveapi.SchedStats{
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
	}
	if s.Durable() {
		out.Log = &logs
	}
	return out
}
