package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/eventlog"
	"gputopo/internal/job"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/schedcore/domains"
	"gputopo/internal/serve"
	"gputopo/internal/serveapi"
	"gputopo/internal/sweep"
	"gputopo/internal/topology"
)

// The traced serving run replays the first tracedWrites write operations
// of the sequence, one op at a time, three times on fresh engines:
//
//	P3  typed client over loopback                      (everything)
//	P2  Handler().ServeHTTP on an httptest recorder     (no net/http, no TCP)
//	P1  a loop owned by this file that does one-op batches with public
//	    calls only, each call a child span of the op    (no serve either)
//
// so http = P3 − P2 and serve = P2 − P1 are self times by subtraction,
// and the layers below come from P1's spans. All three do the client's
// JSON marshalling and unmarshalling, so it cancels out.
const tracedWrites = 10000

// passTimes is one pass over the traced ops.
type passTimes struct {
	byKind   [4]time.Duration
	count    [4]int
	statuses []string // one per write op, for the passes to be compared
	final    *serveapi.StateResponse
}

func (p *passTimes) writes() (time.Duration, int) {
	return p.byKind[opSubmit] + p.byKind[opRelease], p.count[opSubmit] + p.count[opRelease]
}

func (p *passTimes) usPerWrite() float64 {
	d, n := p.writes()
	return float64(d) / 1e3 / float64(max(n, 1))
}

// passP3 drives the ops through the typed client on one connection.
func passP3(ctx context.Context, spec serveSpec, ops []genOp, logPath string, tr *tracer, chk *checker) (*passTimes, error) {
	ls, _, err := spec.start(ctx, logPath, 0, 1)
	if err != nil {
		return nil, err
	}
	defer ls.stop(true)
	pt := &passTimes{}
	var cursor atomic.Int64
	var ph phase
	for i, op := range ops {
		id := tr.begin("p3.op", -1, i)
		t0 := time.Now()
		err := doOp(ctx, ls, op, &cursor, &ph, chk)
		pt.byKind[op.Kind] += time.Since(t0)
		tr.end(id)
		pt.count[op.Kind]++
		if err != nil {
			chk.failf("P3 %s: %v", op, err)
		}
	}
	if pt.final, err = ls.cl.State(ctx); err != nil {
		return nil, err
	}
	return pt, nil
}

// serveHTTP sends one request straight into a handler and decodes the
// answer as the typed client would.
func serveHTTP(h http.Handler, method, path string, body, out any) error {
	var rd *bytes.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(payload)
	} else {
		rd = bytes.NewReader(nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// passP2 drives the ops into the engine's handler with no network.
func passP2(spec serveSpec, ops []genOp, logPath string, tr *tracer, chk *checker) (*passTimes, error) {
	eng, err := spec.newEngine(logPath, 0)
	if err != nil {
		return nil, err
	}
	defer eng.Kill()
	h := eng.Handler()
	pt := &passTimes{}
	cursor := 0
	for i, op := range ops {
		id := tr.begin("p2.op", -1, i)
		t0 := time.Now()
		var err error
		status := ""
		switch op.Kind {
		case opSubmit:
			var resp serveapi.JobResponse
			err = serveHTTP(h, "POST", "/v1/jobs", op.Job.req, &resp)
			status = fmt.Sprintf("%s/%d", resp.Status, len(resp.GPUs))
		case opRelease:
			var resp serveapi.ReleaseResponse
			err = serveHTTP(h, "DELETE", "/v1/jobs/"+op.Job.req.ID, nil, &resp)
			status = resp.Status
		case opDecisions:
			var resp serveapi.DecisionsResponse
			err = serveHTTP(h, "GET", fmt.Sprintf("/v1/decisions?after=%d", cursor), nil, &resp)
			cursor = resp.NextAfter
		case opState:
			var resp serveapi.StateResponse
			if err = serveHTTP(h, "GET", "/v1/state", nil, &resp); err == nil {
				err = checkState(&resp)
			}
		}
		pt.byKind[op.Kind] += time.Since(t0)
		tr.end(id)
		pt.count[op.Kind]++
		if err != nil {
			chk.failf("P2 %s: %v", op, err)
		}
		if status != "" {
			pt.statuses = append(pt.statuses, status)
		}
	}
	return pt, nil
}

// mirrorDomain is one scheduling domain of the P1 loop: what a
// serve.Server owns, built from the same public constructors.
type mirrorDomain struct {
	core   *schedcore.Core
	clk    *schedcore.ManualClock
	log    *eventlog.Log // nil when the workload is in-memory
	jobs   map[string]*job.Job
	ring   []serveapi.DecisionRecord
	decSeq int
}

// mirror is the benchmark-owned serving loop. It processes one op per
// batch the way internal/serve does — decode, route, Submit or Release,
// one Schedule per round, journal, fsync, encode — so that every call
// into a layer below serve can be wrapped in a span without touching
// that layer.
type mirror struct {
	doms     []*mirrorDomain
	router   *domains.Router
	home     map[string]int
	tr       *tracer
	started  time.Time
	appended int
	rewrites int
}

const mirrorRing = 4096 // serve's decision ring and default snapshot interval

// generateProfiles builds the profile store the engines build for a
// topology: every job shape up to 8 GPUs.
func generateProfiles(topo *topology.Topology) *profile.Store {
	return profile.Generate(topo, min(topo.NumGPUs(), 8))
}

func buildSubstrate(ts sweep.TopologySpec) (*topology.Topology, *profile.Store, error) {
	topo, err := ts.Build(ts.EffectiveMachines(1), false)
	if err != nil {
		return nil, nil, err
	}
	return topo, generateProfiles(topo), nil
}

func newMirror(spec serveSpec, logPath string, tr *tracer) (*mirror, error) {
	ts, err := sweep.ParseTopologyArg(spec.topology)
	if err != nil {
		return nil, err
	}
	subs := []sweep.TopologySpec{ts}
	if ts.Domains != "" {
		if _, subs, _, err = ts.PartitionDomains(1); err != nil {
			return nil, err
		}
	}
	disc, err := schedcore.ParseDiscipline(spec.discipline)
	if err != nil {
		return nil, err
	}
	m := &mirror{home: map[string]int{}, tr: tr}
	caps := make([]domains.Capacity, len(subs))
	for d, sub := range subs {
		topo, profiles, err := buildSubstrate(sub)
		if err != nil {
			return nil, err
		}
		mapper, err := core.NewMapper(profiles, core.DefaultWeights())
		if err != nil {
			return nil, err
		}
		dom := &mirrorDomain{clk: schedcore.NewManualClock(0), jobs: map[string]*job.Job{}}
		dom.core = schedcore.New(schedcore.TopoAwareP, cluster.NewState(topo), mapper,
			schedcore.WithClock(dom.clk), schedcore.WithQueueDiscipline(disc))
		dom.core.SetPreemption(spec.preempt)
		if spec.durable {
			path := logPath
			if len(subs) > 1 {
				path = fmt.Sprintf("%s.d%d", logPath, d)
			}
			if dom.log, err = eventlog.Open(path, func(eventlog.Record) error { return nil }); err != nil {
				return nil, err
			}
		}
		m.doms = append(m.doms, dom)
		caps[d] = domains.CapacityOf(topo)
	}
	if len(subs) > 1 {
		m.router = domains.NewRouter(caps, func(d int) (int, int, int) {
			st := m.doms[d].core.State()
			return st.FreeGPUCount(), st.MaxFreeGPUs(), st.FreeMachines()
		})
	}
	m.started = time.Now()
	return m, nil
}

func (m *mirror) close() {
	for _, d := range m.doms {
		if d.log != nil {
			d.log.Close()
		}
	}
}

func (m *mirror) append(d *mirrorDomain, parent, op int, rec eventlog.Record) error {
	if d.log == nil {
		return nil
	}
	id := m.tr.begin("eventlog.append", parent, op)
	err := d.log.Append(rec)
	m.tr.end(id)
	m.appended++
	return err
}

// ringDecisions turns a round's decisions into wire records the way
// serve does: eviction notices first, then the placement itself.
func (d *mirrorDomain) ringDecisions(ds []*schedcore.Decision) []serveapi.DecisionRecord {
	recs := make([]serveapi.DecisionRecord, 0, len(ds))
	add := func(r serveapi.DecisionRecord) {
		d.decSeq++
		r.Seq = d.decSeq
		if len(d.ring) == mirrorRing {
			d.ring = d.ring[1:]
		}
		d.ring = append(d.ring, r)
		recs = append(recs, r)
	}
	for _, dec := range ds {
		for _, ev := range dec.Evictions {
			add(serveapi.DecisionRecord{Time: dec.Time, JobID: ev.Job.ID, Reason: "preempted", Evicted: true,
				PreemptedBy: dec.Job.ID, GPUs: append([]int(nil), ev.GPUs...)})
		}
		r := serveapi.DecisionRecord{Time: dec.Time, JobID: dec.Job.ID, Placed: !dec.Postponed, Reason: dec.Reason}
		if !dec.Postponed {
			r.GPUs = append([]int(nil), dec.Placement.GPUs...)
			r.Utility = dec.Placement.Utility
			r.SLOViolated = dec.SLOViolated
			r.Postponements = dec.Postponements
		}
		add(r)
	}
	return recs
}

// rounds runs Schedule until a round evicts nobody, journalling each
// round and its placements, as serve's processBatch does.
func (m *mirror) rounds(d *mirrorDomain, parent, op int, now float64) ([]serveapi.DecisionRecord, error) {
	var all []serveapi.DecisionRecord
	for {
		if err := m.append(d, parent, op, eventlog.Record{Type: eventlog.TypeRound, Time: now}); err != nil {
			return nil, err
		}
		id := m.tr.begin("schedcore.schedule", parent, op)
		ds := d.core.Schedule()
		m.tr.end(id)
		recs := d.ringDecisions(ds)
		evicted := false
		for i := range recs {
			typ := ""
			switch {
			case recs[i].Evicted:
				evicted, typ = true, eventlog.TypeEvict
			case recs[i].Placed:
				typ = eventlog.TypePlace
			}
			if typ != "" {
				if err := m.append(d, parent, op, eventlog.Record{Type: typ, Time: now, Decision: &recs[i]}); err != nil {
					return nil, err
				}
			}
		}
		all = append(all, recs...)
		if !evicted {
			return all, nil
		}
	}
}

// commit is the group commit of a one-op batch, then the snapshot check.
func (m *mirror) commit(d *mirrorDomain, parent, op int, now float64) error {
	if d.log == nil {
		return nil
	}
	id := m.tr.begin("eventlog.sync", parent, op)
	err := d.log.Sync()
	m.tr.end(id)
	if err != nil {
		return err
	}
	if d.log.SinceRewrite() >= serve.DefaultSnapshotEvery {
		return m.snapshot(d, parent, op, now)
	}
	return nil
}

// snapshot rewrites the domain's log to one snapshot record of its
// running jobs, queue and decision ring.
func (m *mirror) snapshot(d *mirrorDomain, parent, op int, now float64) error {
	sn := &eventlog.Snapshot{ClockSec: now, DecSeq: d.decSeq, Decisions: d.ring}
	st := d.core.State()
	for _, id := range st.Jobs() {
		alloc := st.Allocation(id)
		sn.Running = append(sn.Running, eventlog.RunningJob{Job: serveapi.SpecOf(d.jobs[id]), GPUs: alloc.GPUs, Bandwidth: alloc.Bandwidth})
	}
	for _, j := range d.core.Queued() {
		sn.Queued = append(sn.Queued, serveapi.SpecOf(j))
	}
	id := m.tr.begin("eventlog.rewrite", parent, op)
	err := d.log.Rewrite(eventlog.Record{Type: eventlog.TypeSnapshot, Time: now, Snapshot: sn})
	m.tr.end(id)
	m.rewrites++
	return err
}

func (m *mirror) encode(parent, op int, resp, out any) error {
	rec := httptest.NewRecorder()
	id := m.tr.begin("serveapi.encode", parent, op)
	serveapi.WriteJSON(rec, resp)
	m.tr.end(id)
	return json.Unmarshal(rec.Body.Bytes(), out)
}

func (m *mirror) submit(op int, req serveapi.JobRequest) (string, error) {
	root := m.tr.begin("p1.op", -1, op)
	defer m.tr.end(root)
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	id := m.tr.begin("serveapi.decode", root, op)
	var got serveapi.JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&got)
	m.tr.end(id)
	if err != nil {
		return "", err
	}
	di := 0
	if m.router != nil {
		id = m.tr.begin("domains.route", root, op)
		j, jerr := serveapi.JobSpec{JobRequest: got}.Job()
		if jerr == nil {
			di, jerr = m.router.Route(j)
		}
		m.tr.end(id)
		if jerr != nil {
			return "", jerr
		}
	}
	d := m.doms[di]
	now := time.Since(m.started).Seconds()
	d.clk.Set(now)
	j, err := serveapi.JobSpec{JobRequest: got, Arrival: now}.Job()
	if err != nil {
		return "", err
	}
	id = m.tr.begin("schedcore.submit", root, op)
	err = d.core.Submit(j)
	m.tr.end(id)
	if err != nil {
		return "", err
	}
	d.jobs[j.ID] = j
	m.home[j.ID] = di
	resolved := serveapi.SpecOf(j)
	if err := m.append(d, root, op, eventlog.Record{Type: eventlog.TypeSubmit, Time: now, Job: &resolved}); err != nil {
		return "", err
	}
	recs, err := m.rounds(d, root, op, now)
	if err != nil {
		return "", err
	}
	if err := m.commit(d, root, op, now); err != nil {
		return "", err
	}
	resp := serveapi.JobResponse{ID: j.ID, Time: now, Status: "queued", Reason: "no-capacity"}
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].JobID != j.ID {
			continue
		}
		if recs[i].Placed {
			resp = serveapi.JobResponse{ID: j.ID, Time: now, Status: "placed", GPUs: recs[i].GPUs, Utility: recs[i].Utility, SLOViolated: recs[i].SLOViolated}
		} else if recs[i].Reason != "" {
			resp.Reason = recs[i].Reason
		}
		break
	}
	if resp.Status == "queued" {
		for i, qj := range d.core.Queued() {
			if qj.ID == j.ID {
				resp.QueuePosition = i + 1
				break
			}
		}
	}
	var out serveapi.JobResponse
	if err := m.encode(root, op, resp, &out); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s/%d", out.Status, len(out.GPUs)), nil
}

func (m *mirror) release(op int, jobID string) (string, error) {
	root := m.tr.begin("p1.op", -1, op)
	defer m.tr.end(root)
	di, ok := m.home[jobID]
	if !ok {
		return "", fmt.Errorf("no job %q", jobID)
	}
	d := m.doms[di]
	now := time.Since(m.started).Seconds()
	d.clk.Set(now)
	resp := serveapi.ReleaseResponse{ID: jobID}
	if d.core.State().Allocation(jobID) != nil {
		id := m.tr.begin("schedcore.release", root, op)
		err := d.core.Release(jobID)
		m.tr.end(id)
		if err != nil {
			return "", err
		}
		if err := m.append(d, root, op, eventlog.Record{Type: eventlog.TypeRelease, Time: now, JobID: jobID}); err != nil {
			return "", err
		}
		recs, err := m.rounds(d, root, op, now)
		if err != nil {
			return "", err
		}
		resp.Status = "released"
		for i := range recs {
			if recs[i].Placed {
				resp.Unblocked = append(resp.Unblocked, recs[i].JobID)
			}
		}
	} else {
		id := m.tr.begin("schedcore.release", root, op)
		withdrawn := d.core.Withdraw(jobID)
		m.tr.end(id)
		if !withdrawn {
			return "", fmt.Errorf("job %q neither running nor queued", jobID)
		}
		if err := m.append(d, root, op, eventlog.Record{Type: eventlog.TypeWithdraw, Time: now, JobID: jobID}); err != nil {
			return "", err
		}
		resp.Status = "withdrawn"
	}
	delete(d.jobs, jobID)
	delete(m.home, jobID)
	if err := m.commit(d, root, op, now); err != nil {
		return "", err
	}
	var out serveapi.ReleaseResponse
	if err := m.encode(root, op, resp, &out); err != nil {
		return "", err
	}
	return out.Status, nil
}

// passP1 drives the write ops through the mirror loop. GETs have no
// counterpart below serve and are skipped.
func passP1(spec serveSpec, ops []genOp, logPath string, tr *tracer, chk *checker) (*passTimes, *mirror, error) {
	m, err := newMirror(spec, logPath, tr)
	if err != nil {
		return nil, nil, err
	}
	defer m.close()
	pt := &passTimes{}
	for i, op := range ops {
		if op.Kind != opSubmit && op.Kind != opRelease {
			continue
		}
		t0 := time.Now()
		var status string
		if op.Kind == opSubmit {
			status, err = m.submit(i, op.Job.req)
		} else {
			status, err = m.release(i, op.Job.req.ID)
		}
		pt.byKind[op.Kind] += time.Since(t0)
		pt.count[op.Kind]++
		if err != nil {
			chk.failf("P1 %s: %v", op, err)
		}
		pt.statuses = append(pt.statuses, status)
	}
	for _, d := range m.doms {
		if d.log != nil && m.rewrites == 0 {
			// Too short a pass to reach the snapshot interval: take the
			// snapshot a graceful Close would, so the rewrite is timed.
			if err := m.snapshot(d, -1, len(ops), time.Since(m.started).Seconds()); err != nil {
				return nil, nil, err
			}
		}
	}
	return pt, m, nil
}

// runServeTraced is the traced run of a serving workload: the three
// passes, the paced phase, the recovery drill and the unit-cost probes.
func runServeTraced(ctx context.Context, cfg runConfig, res *result) error {
	spec := serveSpecFor(cfg.workload, cfg.smoke)
	chk := &checker{}
	L := res.layers
	writes := tracedWrites
	if cfg.smoke {
		writes = 400
	}
	logAt := func(name string) string {
		if !spec.durable {
			return ""
		}
		return filepath.Join(cfg.dir, name+".log")
	}
	tr := newTracer()

	ops, _ := prefix(spec.gen, cfg.seed, writes)
	p3, err := passP3(ctx, spec, ops, logAt("p3"), tr, chk)
	if err != nil {
		return err
	}
	p2, err := passP2(spec, ops, logAt("p2"), tr, chk)
	if err != nil {
		return err
	}
	p1plain, _, err := passP1(spec, ops, logAt("p1-plain"), nil, chk)
	if err != nil {
		return err
	}
	p1, mir, err := passP1(spec, ops, logAt("p1"), tr, chk)
	if err != nil {
		return err
	}
	// One op at a time, a single-domain engine is deterministic, so the
	// loop must answer every write as serve did. A sharded one routes on
	// counters its domains publish after they have answered, so the next
	// submit can race them: there a difference is reported, not failed.
	differ := 0
	for i := range p2.statuses {
		if i < len(p1.statuses) && p1.statuses[i] != p2.statuses[i] {
			if differ == 0 && len(mir.doms) == 1 {
				chk.failf("write op %d answered %q through the handler but %q in the P1 loop: the loop no longer mirrors serve", i, p2.statuses[i], p1.statuses[i])
			}
			differ++
		}
	}
	if differ > 0 {
		res.notef("%d of %d writes answered differently in P1 and P2", differ, len(p2.statuses))
	}
	lt := tr.aggregate()
	p3us, p2us, p1us := p3.usPerWrite(), p2.usPerWrite(), p1.usPerWrite()
	_, nWrites := p1.writes()
	L.set("http.self_us", p3us-p2us, nWrites)
	L.set("serve.self_us", p2us-p1us, nWrites)
	L.set("serve.decisions_get_us", float64(p2.byKind[opDecisions])/1e3/float64(max(p2.count[opDecisions], 1)), p2.count[opDecisions])
	L.set("serve.state_get_us", float64(p2.byKind[opState])/1e3/float64(max(p2.count[opState], 1)), p2.count[opState])
	for _, m := range [][2]string{
		{"serveapi.decode", "serveapi.decode_us"}, {"serveapi.encode", "serveapi.encode_us"},
		{"eventlog.append", "eventlog.append_us"}, {"schedcore.submit", "schedcore.submit_us"},
		{"schedcore.release", "schedcore.release_us"},
	} {
		L.set(m[1], lt.meanUs(m[0]), lt.count[m[0]])
	}
	L.set("domains.route_ns", lt.meanUs("domains.route")*1e3, lt.count["domains.route"])
	L.set("eventlog.sync_p50_us", lt.pctUs("eventlog.sync", 50), lt.count["eventlog.sync"])
	L.set("eventlog.sync_p99_us", lt.pctUs("eventlog.sync", 99), lt.count["eventlog.sync"])
	L.set("eventlog.rewrite_ms", lt.meanUs("eventlog.rewrite")/1e3, lt.count["eventlog.rewrite"])
	L.set("eventlog.records_per_op", float64(mir.appended)/float64(max(nWrites, 1)), nWrites)
	L.set("schedcore.schedule_p50_us", lt.pctUs("schedcore.schedule", 50), lt.count["schedcore.schedule"])
	L.set("schedcore.schedule_p99_us", lt.pctUs("schedcore.schedule", 99), lt.count["schedcore.schedule"])
	if len(mir.doms) > 1 {
		perDomain := make([]int, len(mir.doms))
		for d, dom := range mir.doms {
			perDomain[d] = dom.core.Stats().Decisions
		}
		L.set("domains.imbalance_ratio", imbalance(perDomain), 0)
	}
	p3w, _ := p3.writes()
	p1w, _ := p1.writes()
	p1plainW, _ := p1plain.writes()
	L.set("trace.unattributed_ratio", float64(lt.self["p1.op"])/float64(max(p3w, 1)), 0)
	L.set("trace.overhead_ratio", float64(p1w)/float64(max(p1plainW, 1)), 0)

	// The scheduler's own counters, from the state the deterministic P3
	// pass left: one op at a time, so they repeat exactly for a seed.
	ss := p3.final.Stats
	var pc serveapi.PlaceCacheStats
	if p3.final.PlaceCache != nil {
		pc = *p3.final.PlaceCache
	}
	setSchedCounts(L, schedcore.Stats{
		Decisions: ss.Decisions, Placements: ss.Placements, GateSkips: ss.GateSkips, WakeSkips: ss.WakeSkips,
		Preemptions: ss.Preemptions, Evictions: ss.Evictions,
		PlaceCacheHits: pc.Hits, PlaceCacheMisses: pc.Misses, PlaceCacheEvictions: pc.Evictions,
	})
	L.set("schedcore.decision_time_s", ss.TotalDecisionMs/1e3, ss.Decisions)
	res.notef("per write op: P3 %.1fus, P2 %.1fus, P1 %.1fus traced / %.1fus untraced over %d ops", p3us, p2us, p1us, p1plain.usPerWrite(), nWrites)

	// Paced phase: the same generator, open loop at its own rate.
	workers := clientCount()
	ls, _, err := spec.start(ctx, logAt("paced"), 0, workers)
	if err != nil {
		return err
	}
	paced, err := drive(ctx, ls, newGenerator(spec.gen, cfg.seed), driveMode{paced: true}, cfg.measure()/2, workers, chk)
	_, retries := ls.cl.Stats()
	if serr := ls.stop(false); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	posts := paced.lat[opSubmit]
	L.set("paced.submit_p50_ms", pctOf(chk, "paced POSTs", posts, 50), len(posts))
	L.set("paced.submit_p99_ms", pctOf(chk, "paced POSTs", posts, cfg.tailPercentile()), len(posts))
	L.set("paced.goodput_ratio", float64(paced.onTime)/float64(max(paced.due, 1)), paced.due)
	L.set("paced.max_lateness_ms", float64(paced.maxLateness)/1e6, 0)
	L.set("serve.rejected_429", float64(retries), 0)
	L.set("serve.placed_ratio", float64(paced.ranEver)/float64(max(paced.jobs, 1)), paced.jobs)
	L.set("runtime.gc_pause_ms", float64(paced.gcPause)/1e6, 0)
	L.set("runtime.gc_cycles", float64(paced.gcCycles), 0)
	if lg := paced.final.Log; lg != nil {
		pacedWrites := len(posts) + len(paced.lat[opRelease])
		L.set("eventlog.syncs_per_op", float64(lg.Syncs-lg.Snapshots)/float64(max(pacedWrites, 1)), pacedWrites)
		L.set("eventlog.rewrites", float64(lg.Snapshots), 0)
	}
	attempted := 3*len(ops) + nWrites + paced.attempted

	if spec.durable {
		n, err := recoveryDrill(ctx, spec, cfg, writes, L, chk)
		if err != nil {
			return err
		}
		attempted += n
	}

	ts, err := sweep.ParseTopologyArg(spec.topology)
	if err != nil {
		return err
	}
	ts.Domains = ""
	t0 := time.Now()
	topo, err := ts.Build(ts.EffectiveMachines(1), false)
	if err != nil {
		return err
	}
	t1 := time.Now()
	profiles := generateProfiles(topo)
	L.set("topology.build_ms", float64(t1.Sub(t0))/1e6, 1)
	L.set("profile.generate_ms", float64(time.Since(t1))/1e6, 1)
	probes, err := runProbes(topo, profiles, cfg.seed, cfg.smoke)
	if err != nil {
		return err
	}
	probes.report(L)

	if err := tr.write(cfg.traceOut); err != nil {
		return err
	}
	res.notef("%d spans written to %s", len(tr.spans), cfg.traceOut)
	res.attempted, res.failed, res.failures = attempted, chk.failed, chk.msgs
	return nil
}

// recoveryDrill fills a durable server that never snapshots, kills it
// mid-sequence, and times a restart on the same log until it is healthy;
// the recovered state must equal the state before the kill. It returns
// the ops it sent.
func recoveryDrill(ctx context.Context, spec serveSpec, cfg runConfig, writes int, L *metricSet, chk *checker) (int, error) {
	logPath := filepath.Join(cfg.dir, "recovery.log")
	ops, cut := prefix(spec.gen, cfg.seed, writes)
	ops = ops[:cut] // stop before the closing DELETEs: jobs running, jobs queued
	ls, _, err := spec.start(ctx, logPath, -1, 1)
	if err != nil {
		return 0, err
	}
	var cursor atomic.Int64
	var ph phase
	for _, op := range ops {
		if err := doOp(ctx, ls, op, &cursor, &ph, chk); err != nil {
			chk.failf("recovery fill %s: %v", op, err)
		}
	}
	before, err := ls.cl.State(ctx)
	if err != nil {
		ls.stop(true)
		return 0, err
	}
	ls.stop(true)

	ls, up, err := spec.start(ctx, logPath, -1, 1)
	if err != nil {
		return 0, fmt.Errorf("restart on %s: %w", logPath, err)
	}
	after, err := ls.cl.State(ctx)
	replayed := ls.eng.Replayed()
	ls.stop(true)
	if err != nil {
		return 0, err
	}
	if !sameState(before, after) {
		chk.failf("recovered state differs from the state before the kill (%d running, %d queued before; %d, %d after)",
			len(before.Running), len(before.Queue), len(after.Running), len(after.Queue))
	}
	nWrites := 0
	for _, op := range ops {
		if op.Kind == opSubmit || op.Kind == opRelease {
			nWrites++
		}
	}
	L.set("serve.recovery_s", up.Seconds(), 1)
	L.set("serve.recovery_us_per_record", float64(up)/1e3/float64(max(replayed, 1)), replayed)
	if lg := before.Log; lg != nil {
		L.set("eventlog.bytes_per_op", float64(lg.BytesSinceSnapshot)/float64(max(nWrites, 1)), nWrites)
	}

	// The log's own share of that restart: read, check and decode every
	// record, apply nothing.
	t0 := time.Now()
	records := 0
	lg, err := eventlog.Open(logPath, func(eventlog.Record) error { records++; return nil })
	if err != nil {
		return 0, err
	}
	replay := time.Since(t0)
	lg.Close()
	L.set("eventlog.replay_us_per_record", float64(replay)/1e3/float64(max(records, 1)), records)
	return len(ops), nil
}
