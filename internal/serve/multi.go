package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gputopo/internal/schedcore/domains"
	"gputopo/internal/serveapi"
)

// MultiServer serves a sharded cluster: one Server (single-writer loop,
// core, event log) per scheduling domain, behind the same /v1 API a
// single-core server exposes. Submissions route through a
// domains.Router fed by each domain's published free-GPU counters and
// spill to the next admissible domain when the preferred one cannot
// seat the job now; every other operation follows the job to its home
// domain. Durability is per domain — LogPath becomes one log per domain
// (path + ".dN"), each replayed independently on start, so recovery
// parallelizes with the fleet split. docs/sharding.md documents the
// model and its API deltas (global job-ID namespace, per-domain
// /v1/decisions cursors, per-domain MaxQueue).
type MultiServer struct {
	cfg     Config
	spec    domains.Spec
	servers []*Server
	router  *domains.Router
	// machines[d] holds the global machine indices domain d owns;
	// gpuMaps[d] maps the domain's local GPU positions to global ones so
	// every wire-visible placement uses cluster-wide coordinates.
	machines [][]int
	gpuMaps  [][]int
	started  time.Time

	draining atomic.Bool

	// mu guards the routing state: the home map (accepted job → domain),
	// the in-flight set (IDs submitted but not yet answered) and the
	// generated-ID counter. Routing itself happens under mu so the
	// counter reads and the spill decision are atomic per submission.
	mu     sync.Mutex
	home   map[string]int
	isPend map[string]bool
	seq    int
}

// NewMulti partitions the spec's cluster into its scheduling domains
// and starts one Server per domain. The spec must carry a domains[...]
// split; use New for single-core serving.
func NewMulti(cfg Config) (*MultiServer, error) {
	sp, subs, groups, err := cfg.Spec.PartitionDomains(1)
	if err != nil {
		return nil, err
	}
	if !sp.Enabled() {
		return nil, fmt.Errorf("serve: NewMulti needs a domains[...] split in the topology spec (got %q)", cfg.Spec.Key())
	}
	ms := &MultiServer{
		cfg:      cfg,
		spec:     sp,
		machines: groups,
		home:     map[string]int{},
		isPend:   map[string]bool{},
		started:  time.Now(),
	}
	// The global topology orders every wire-visible GPU index; domain
	// substrates are slices of it, machine by machine.
	global, err := cfg.Spec.Build(cfg.Spec.EffectiveMachines(1), false)
	if err != nil {
		return nil, err
	}
	caps := make([]domains.Capacity, len(subs))
	for d, sub := range subs {
		dcfg := cfg
		dcfg.Spec = sub
		if cfg.LogPath != "" {
			dcfg.LogPath = fmt.Sprintf("%s.d%d", cfg.LogPath, d)
		}
		srv, err := New(dcfg)
		if err != nil {
			for _, prev := range ms.servers {
				prev.Close()
			}
			return nil, fmt.Errorf("serve: domain %d (%s): %w", d, sub.Key(), err)
		}
		ms.servers = append(ms.servers, srv)
		caps[d] = domains.CapacityOf(srv.Topology())
		gm := make([]int, 0, srv.Topology().NumGPUs())
		for k, g := range groups[d] {
			local := srv.Topology().GPUsOfMachine(k)
			glob := global.GPUsOfMachine(g)
			if len(local) != len(glob) {
				for _, prev := range ms.servers {
					prev.Close()
				}
				return nil, fmt.Errorf("serve: domain %d machine %d has %d GPUs, global machine %d has %d", d, k, len(local), g, len(glob))
			}
			gm = append(gm, glob...)
		}
		ms.gpuMaps = append(ms.gpuMaps, gm)
	}
	ms.router = domains.NewRouter(caps, func(d int) (int, int, int) {
		return ms.servers[d].FreeCounters()
	})
	// Recovery rebuilds the routing state the per-domain replays cannot:
	// the home map and the generated-ID counter live up here, not in any
	// domain's log. Every replayed job is homed to the domain that
	// journaled it — so releases and withdrawals of pre-crash jobs find
	// their loop — and the counter resumes above the largest recovered
	// job-N, so fresh generated IDs never collide with replayed ones.
	// Explicit resubmissions of recovered IDs 409 through the ordinary
	// home-map check in handleSubmit.
	for d, srv := range ms.servers {
		ids, ok := srv.JobIDs()
		if !ok {
			ms.Close()
			return nil, fmt.Errorf("serve: domain %d shut down during recovery", d)
		}
		for _, id := range ids {
			if prev, taken := ms.home[id]; taken {
				ms.Close()
				return nil, fmt.Errorf("serve: job %q recovered in domains %d and %d: per-domain logs violate the global ID namespace", id, prev, d)
			}
			ms.home[id] = d
			if rest, isGen := strings.CutPrefix(id, "job-"); isGen {
				if n, err := strconv.Atoi(rest); err == nil && n > ms.seq {
					ms.seq = n
				}
			}
		}
	}
	return ms, nil
}

// Domains returns the number of scheduling domains.
func (ms *MultiServer) Domains() int { return len(ms.servers) }

// Replayed sums the event-log records each domain replayed at startup.
func (ms *MultiServer) Replayed() int {
	n := 0
	for _, s := range ms.servers {
		n += s.Replayed()
	}
	return n
}

// Durable reports whether event logs back the domains.
func (ms *MultiServer) Durable() bool { return ms.cfg.LogPath != "" }

// BeginDrain stops admitting submissions on every domain.
func (ms *MultiServer) BeginDrain() {
	ms.draining.Store(true)
	for _, s := range ms.servers {
		s.BeginDrain()
	}
}

// Close shuts every domain down gracefully (final snapshot per log) and
// returns the first error.
func (ms *MultiServer) Close() error {
	var err error
	for _, s := range ms.servers {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Kill stops every domain without final snapshots (the crash path).
func (ms *MultiServer) Kill() {
	for _, s := range ms.servers {
		s.Kill()
	}
}

// globalGPUs translates a domain's local GPU positions to cluster-wide
// indices, returning a fresh slice (ring records must not be mutated).
func (ms *MultiServer) globalGPUs(d int, gpus []int) []int {
	if len(gpus) == 0 {
		return nil
	}
	gm := ms.gpuMaps[d]
	out := make([]int, len(gpus))
	for i, g := range gpus {
		out[i] = gm[g]
	}
	return out
}

// Handler wires the sharded /v1 API: same routes and wire types as the
// single-core Handler, with routing on submit and home-domain lookup on
// everything job-addressed.
func (ms *MultiServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", ms.handleSubmit)
	mux.HandleFunc("DELETE /v1/jobs/{id}", ms.handleRelease)
	mux.HandleFunc("GET /v1/decisions", ms.handleDecisions)
	mux.HandleFunc("GET /v1/state", ms.handleState)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleSubmit routes one submission: resolve the ID in the global
// namespace, pick the domain by admissible free-capacity heuristic, and
// forward into that domain's batching loop.
func (ms *MultiServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req serveapi.JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		serveapi.WriteError(w, http.StatusBadRequest, serveapi.CodeInvalidJSON, "invalid job JSON: %v", err)
		return
	}
	if ms.draining.Load() {
		serveapi.WriteError(w, http.StatusServiceUnavailable, serveapi.CodeDraining, "server is draining; not admitting jobs")
		return
	}
	ms.mu.Lock()
	id := req.ID
	if id == "" {
		for {
			ms.seq++
			id = fmt.Sprintf("job-%d", ms.seq)
			if _, taken := ms.home[id]; !taken && !ms.isPend[id] {
				break
			}
		}
		req.ID = id
	} else if _, taken := ms.home[id]; taken || ms.isPend[id] {
		ms.mu.Unlock()
		serveapi.WriteError(w, http.StatusConflict, serveapi.CodeJobExists, "job %s already exists", id)
		return
	}
	// Materialize the job once for the admissibility check — the same
	// defaulting the domain's loop will re-run.
	j, err := serveapi.JobSpec{JobRequest: req}.Job()
	if err != nil {
		ms.mu.Unlock()
		serveapi.WriteError(w, http.StatusBadRequest, serveapi.CodeInvalidJob, "%v", err)
		return
	}
	d, err := ms.router.Route(j)
	if err != nil {
		ms.mu.Unlock()
		serveapi.WriteError(w, http.StatusBadRequest, serveapi.CodeInvalidJob, "%v", err)
		return
	}
	ms.isPend[id] = true
	ms.mu.Unlock()

	o := &op{kind: opSubmit, req: req, done: make(chan struct{})}
	ok := ms.servers[d].submit(o)

	ms.mu.Lock()
	delete(ms.isPend, id)
	if ok && o.accepted {
		ms.home[id] = d
	}
	ms.mu.Unlock()

	if !ok {
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
	resp := o.jobResp
	resp.GPUs = ms.globalGPUs(d, resp.GPUs)
	serveapi.WriteJSON(w, resp)
}

// handleRelease forwards the release to the job's home domain and
// unbinds it on success.
func (ms *MultiServer) handleRelease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ms.mu.Lock()
	d, ok := ms.home[id]
	ms.mu.Unlock()
	if !ok {
		serveapi.WriteError(w, http.StatusNotFound, serveapi.CodeJobNotFound, "no queued or running job %q", id)
		return
	}
	o := &op{kind: opRelease, id: id, done: make(chan struct{})}
	if !ms.servers[d].submit(o) {
		serveapi.WriteError(w, http.StatusServiceUnavailable, serveapi.CodeDraining, "server is shut down")
		return
	}
	if o.accepted {
		ms.mu.Lock()
		delete(ms.home, id)
		ms.mu.Unlock()
	}
	if o.errCode != "" {
		serveapi.WriteError(w, o.status, o.errCode, "%s", o.errMsg)
		return
	}
	serveapi.WriteJSON(w, o.relResp)
}

// handleDecisions pages one domain's decision ring (domains journal and
// sequence decisions independently, so the cursor is per domain). The
// domain query parameter selects it; default 0. GPU positions are
// translated to cluster-wide indices.
func (ms *MultiServer) handleDecisions(w http.ResponseWriter, r *http.Request) {
	d := 0
	if q := r.URL.Query().Get("domain"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 || n >= len(ms.servers) {
			serveapi.WriteError(w, http.StatusBadRequest, serveapi.CodeInvalidParam, "domain %q must be an integer in [0,%d)", q, len(ms.servers))
			return
		}
		d = n
	}
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
	if !ms.servers[d].do(func() { resp = ms.servers[d].decisionsPage(after, limit) }) {
		serveapi.WriteError(w, http.StatusServiceUnavailable, serveapi.CodeDraining, "server is shut down")
		return
	}
	for i := range resp.Decisions {
		resp.Decisions[i].GPUs = ms.globalGPUs(d, resp.Decisions[i].GPUs)
	}
	serveapi.WriteJSON(w, resp)
}

// handleState merges every domain's snapshot into one cluster-wide
// state response, with the per-domain breakdown alongside.
func (ms *MultiServer) handleState(w http.ResponseWriter, r *http.Request) {
	states := make([]serveapi.StateResponse, len(ms.servers))
	for d, s := range ms.servers {
		d, s := d, s
		if !s.do(func() { states[d] = s.stateSnapshot() }) {
			serveapi.WriteError(w, http.StatusServiceUnavailable, serveapi.CodeDraining, "server is shut down")
			return
		}
	}
	serveapi.WriteJSON(w, ms.mergeStates(states))
}

// mergeStates folds the per-domain snapshots into the cluster view:
// counters sum, the clock is the furthest domain's, fragmentation is
// GPU-weighted, and machine/GPU indices translate to global positions.
func (ms *MultiServer) mergeStates(states []serveapi.StateResponse) serveapi.StateResponse {
	first := states[0]
	out := serveapi.StateResponse{
		Topology:   ms.cfg.Spec.Key(),
		Policy:     first.Policy,
		UptimeSec:  time.Since(ms.started).Seconds(),
		Durable:    ms.Durable(),
		Draining:   ms.draining.Load(),
		MaxQueue:   ms.cfg.MaxQueue,
		Running:    []serveapi.RunningEntry{},
		Queue:      []serveapi.QueuedEntry{},
		Discipline: first.Discipline,
		Preemption: first.Preemption,
	}
	var fragWeighted float64
	var agg serveapi.LogStats
	var cacheAgg serveapi.PlaceCacheStats
	for d, st := range states {
		out.Machines += st.Machines
		out.GPUs += st.GPUs
		out.FreeGPUs += st.FreeGPUs
		out.Decisions += st.Decisions
		if st.ClockSec > out.ClockSec {
			out.ClockSec = st.ClockSec
		}
		fragWeighted += st.Fragments * float64(st.GPUs)
		out.Stats.Decisions += st.Stats.Decisions
		out.Stats.Placements += st.Stats.Placements
		out.Stats.Postponements += st.Stats.Postponements
		out.Stats.SLOViolations += st.Stats.SLOViolations
		out.Stats.WakeSkips += st.Stats.WakeSkips
		out.Stats.Preemptions += st.Stats.Preemptions
		out.Stats.Evictions += st.Stats.Evictions
		out.Stats.TotalDecisionMs += st.Stats.TotalDecisionMs
		if st.Stats.MaxDecisionUs > out.Stats.MaxDecisionUs {
			out.Stats.MaxDecisionUs = st.Stats.MaxDecisionUs
		}
		for _, re := range st.Running {
			out.Running = append(out.Running, serveapi.RunningEntry{ID: re.ID, GPUs: ms.globalGPUs(d, re.GPUs)})
		}
		out.Queue = append(out.Queue, st.Queue...)
		for i, be := range st.Bandwidth {
			out.Bandwidth = append(out.Bandwidth, serveapi.BandwidthEntry{
				Machine: ms.machines[d][i], FreeGBs: be.FreeGBs,
			})
		}
		if st.Log != nil {
			agg.Records += st.Log.Records
			agg.SinceSnapshot += st.Log.SinceSnapshot
			agg.BytesSinceSnapshot += st.Log.BytesSinceSnapshot
			agg.Snapshots += st.Log.Snapshots
			agg.ReplayedAtBoot += st.Log.ReplayedAtBoot
			agg.Syncs += st.Log.Syncs
		}
		cacheAgg.Hits += st.PlaceCache.Hits
		cacheAgg.Misses += st.PlaceCache.Misses
		cacheAgg.Evictions += st.PlaceCache.Evictions
		out.Domains = append(out.Domains, serveapi.DomainState{
			Domain:     d,
			Topology:   st.Topology,
			Machines:   st.Machines,
			GPUs:       st.GPUs,
			FreeGPUs:   st.FreeGPUs,
			Running:    len(st.Running),
			Queued:     len(st.Queue),
			Decisions:  st.Decisions,
			Log:        st.Log,
			PlaceCache: st.PlaceCache,
		})
	}
	sort.Slice(out.Bandwidth, func(i, j int) bool { return out.Bandwidth[i].Machine < out.Bandwidth[j].Machine })
	if out.GPUs > 0 {
		out.Fragments = fragWeighted / float64(out.GPUs)
	}
	if out.Stats.Decisions > 0 {
		out.Stats.MeanDecisionUs = out.Stats.TotalDecisionMs * 1000 / float64(out.Stats.Decisions)
	}
	if ms.Durable() {
		out.Log = &agg
	}
	out.PlaceCache = &cacheAgg
	return out
}
