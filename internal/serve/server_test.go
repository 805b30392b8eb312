package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/eventlog"
	"gputopo/internal/job"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/serveapi"
	"gputopo/internal/serveapi/client"
	"gputopo/internal/sweep"
	"gputopo/internal/workload"
)

// startServer builds a Server — unsplit or split, as the spec says — and
// wraps it in httptest plus the typed client every test drives the API
// through; baseURL(c) is the raw endpoint.
func startServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	if cfg.Spec.Key() == "" {
		t.Fatal("startServer: zero spec")
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := client.New(ts.URL)
	c.MaxRetryWait = 20 * time.Millisecond
	return srv, c
}

func specArg(t *testing.T, arg string) sweep.TopologySpec {
	t.Helper()
	spec, err := sweep.ParseTopologyArg(arg)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// cloneJob copies a generated job so the reference core and any other
// consumer never share mutable state.
func cloneJob(j *job.Job) *job.Job {
	c := job.New(j.ID, j.Model, j.BatchSize, j.GPUs, j.MinUtility, j.Arrival)
	c.Iterations = j.Iterations
	c.SingleNode = j.SingleNode
	c.AntiCollocate = j.AntiCollocate
	c.Parallelism = j.Parallelism
	return c
}

// TestEndToEndScenario1BurstMatchesSimulator is the acceptance test of
// the serving stack: a scenario-1-style burst submitted over HTTP in
// arrival order must receive exactly the placements a simulator-driven
// core produces for the same arrival order on the same substrate — the
// serving front-end and the simulator are two drivers of one core, so
// their decisions may differ only in clock readings, never in GPUs.
func TestEndToEndScenario1BurstMatchesSimulator(t *testing.T) {
	const topoArg = "minsky:2"
	spec := specArg(t, topoArg)
	topo, err := spec.Build(spec.EffectiveMachines(1), false)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(workload.GenConfig{Jobs: 30, Seed: 42, ArrivalRate: 10}, topo)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the simulator's construction of the core (ManualClock,
	// same profile store), driven submit-by-submit in arrival order with
	// no completions — exactly what the HTTP burst is.
	maxGPUs := topo.NumGPUs()
	if maxGPUs > 8 {
		maxGPUs = 8
	}
	mapper, err := core.NewMapper(profile.Generate(topo, maxGPUs), core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	clk := schedcore.NewManualClock(0)
	ref := schedcore.New(schedcore.TopoAwareP, cluster.NewState(topo), mapper, schedcore.WithClock(clk))
	wantGPUs := map[string][]int{}
	for _, j := range jobs {
		clk.Set(j.Arrival)
		if err := ref.Submit(cloneJob(j)); err != nil {
			t.Fatal(err)
		}
		for _, d := range ref.Schedule() {
			if !d.Postponed {
				wantGPUs[d.Job.ID] = append([]int(nil), d.Placement.GPUs...)
			}
		}
	}

	_, c := startServer(t, Config{Spec: spec, Policy: schedcore.TopoAwareP})
	ctx := ctxT(t)
	gotGPUs := map[string][]int{}
	queued := 0
	for _, j := range jobs {
		jr, err := c.SubmitJob(ctx, serveapi.JobRequest{
			ID:         j.ID,
			Model:      j.Model.String(),
			BatchSize:  j.BatchSize,
			GPUs:       j.GPUs,
			MinUtility: j.MinUtility,
			Iterations: j.Iterations,
		})
		if err != nil {
			t.Fatalf("submit %s: %v", j.ID, err)
		}
		if jr.Status == "placed" {
			gotGPUs[j.ID] = jr.GPUs
		} else {
			queued++
		}
	}
	// Later rounds may also place previously queued jobs (the epoch moves
	// on every placement); those decisions live in the log, not in the
	// submitting POST's response.
	all, truncated, err := c.AllDecisions(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("decision ring truncated during a 30-job burst")
	}
	for _, d := range all {
		if d.Placed {
			if _, ok := gotGPUs[d.JobID]; !ok {
				gotGPUs[d.JobID] = d.GPUs
				queued--
			}
		}
	}

	if len(gotGPUs) != len(wantGPUs) {
		t.Fatalf("server placed %d jobs, reference placed %d", len(gotGPUs), len(wantGPUs))
	}
	for id, want := range wantGPUs {
		got, ok := gotGPUs[id]
		if !ok {
			t.Fatalf("job %s placed by reference but queued by server", id)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("job %s: server GPUs %v, reference GPUs %v", id, got, want)
		}
	}
	if queued == 0 {
		t.Fatal("burst never saturated the cluster; the equivalence proves nothing about queuing")
	}
}

// TestServerLifecycle walks the full API surface through the typed
// client: health, submit, duplicate (409 job_exists), state, release
// with wake-up, withdraw, decisions paging and every error envelope.
func TestServerLifecycle(t *testing.T) {
	srv, c := startServer(t, Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP})
	ctx := ctxT(t)

	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	// Fill the machine (4 GPUs) with two 2-GPU jobs.
	for i := 1; i <= 2; i++ {
		jr, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: fmt.Sprintf("run%d", i), GPUs: 2, BatchSize: 4})
		if err != nil || jr.Status != "placed" {
			t.Fatalf("run%d: %+v %v", i, jr, err)
		}
	}
	// A third 2-GPU job queues.
	jr, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "waiter", GPUs: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if jr.Status != "queued" || jr.QueuePosition != 1 {
		t.Fatalf("waiter response: %+v", jr)
	}

	// Duplicate IDs conflict with the envelope code.
	if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "waiter", GPUs: 1}); !client.IsCode(err, serveapi.CodeJobExists) {
		t.Fatalf("duplicate: %v", err)
	}
	// Unknown model and invalid fields are invalid_job.
	if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "bad", GPUs: 1, Model: "ResNet"}); !client.IsCode(err, serveapi.CodeInvalidJob) {
		t.Fatalf("unknown model: %v", err)
	}
	if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "zero", GPUs: 0}); !client.IsCode(err, serveapi.CodeInvalidJob) {
		t.Fatalf("zero GPUs: %v", err)
	}
	// Malformed JSON is invalid_json (raw HTTP: the client cannot emit it).
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %v %v", resp, err)
	}
	resp.Body.Close()

	// State reflects 2 running + 1 queued.
	st, err := c.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Running) != 2 || len(st.Queue) != 1 || st.FreeGPUs != 0 {
		t.Fatalf("state: %+v", st)
	}
	if st.Topology != "minsky:1" || st.Policy != "TOPO-AWARE-P" {
		t.Fatalf("state header: %+v", st)
	}
	if st.Durable || st.MaxQueue != 0 || st.Draining {
		t.Fatalf("in-memory server flags: %+v", st)
	}

	// Releasing a running job frees its GPUs and unblocks the waiter —
	// via the wake-up index, not a queue walk.
	rr, err := c.ReleaseJob(ctx, "run1")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Status != "released" || !slices.Contains(rr.Unblocked, "waiter") {
		t.Fatalf("release: %+v", rr)
	}

	// Withdraw a queued job.
	if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "cancelme", GPUs: 4, BatchSize: 4}); err != nil {
		t.Fatal(err)
	}
	rr, err = c.ReleaseJob(ctx, "cancelme")
	if err != nil || rr.Status != "withdrawn" {
		t.Fatalf("withdraw: %+v %v", rr, err)
	}
	// Unknown deletes get the job_not_found envelope.
	if _, err := c.ReleaseJob(ctx, "nosuch"); !client.IsCode(err, serveapi.CodeJobNotFound) {
		t.Fatalf("delete nosuch: %v", err)
	}

	// The decision log saw every decision, in order, with monotonic seq.
	all, truncated, err := c.AllDecisions(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if truncated || len(all) == 0 {
		t.Fatalf("decision log: %d records, truncated=%v", len(all), truncated)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq != all[i-1].Seq+1 {
			t.Fatal("decision log out of order")
		}
	}
	// Bad query params get invalid_param envelopes (raw HTTP).
	for _, q := range []string{"limit=zero", "limit=-3", "limit=0", "after=x", "after=-1"} {
		resp, err := http.Get(ts.URL + "/v1/decisions?" + q)
		if err != nil {
			t.Fatal(err)
		}
		var envelope serveapi.ErrorResponse
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d", q, resp.StatusCode)
		}
		if err := decodeBody(resp, &envelope); err != nil || envelope.Error.Code != serveapi.CodeInvalidParam {
			t.Fatalf("%s: envelope %+v (%v)", q, envelope, err)
		}
	}
}

// TestDecisionsPagination drives the after/limit cursor end to end.
func TestDecisionsPagination(t *testing.T) {
	_, c := startServer(t, Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP})
	ctx := ctxT(t)
	// 6 submits: 2 place, 4 queue (each submit is one round deciding the
	// whole queue, so the decision count grows quadratically-ish).
	for i := 0; i < 6; i++ {
		if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: fmt.Sprintf("p%d", i), GPUs: 2, BatchSize: 4}); err != nil {
			t.Fatal(err)
		}
	}
	first, err := c.Decisions(ctx, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Decisions) != 2 || first.Decisions[0].Seq != 1 || first.NextAfter != 2 {
		t.Fatalf("first page: %+v", first)
	}
	if first.OldestSeq != 1 || first.Truncated {
		t.Fatalf("first page window: %+v", first)
	}
	// Follow the cursor to the end; the concatenation must be gap-free.
	all, truncated, err := c.AllDecisions(ctx, 0)
	if err != nil || truncated {
		t.Fatalf("paging: %v truncated=%v", err, truncated)
	}
	if len(all) == 0 || all[len(all)-1].Seq != first.LatestSeq {
		t.Fatalf("cursor missed the tail: %d records, latest %d", len(all), first.LatestSeq)
	}
	for i := range all {
		if all[i].Seq != i+1 {
			t.Fatalf("gap at %d: seq %d", i, all[i].Seq)
		}
	}
	// A cursor beyond the latest record yields an empty page, echoing the
	// cursor back.
	past, err := c.Decisions(ctx, first.LatestSeq+100, 0)
	if err != nil || len(past.Decisions) != 0 || past.NextAfter != first.LatestSeq+100 {
		t.Fatalf("past-the-end page: %+v %v", past, err)
	}
}

// TestDecisionRingWraps pushes the ring past capacity and checks the
// oldest records drop, pages stay ordered and the truncation is
// reported to cursors that point below the surviving window.
func TestDecisionRingWraps(t *testing.T) {
	srv, c := startServer(t, Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP})
	ctx := ctxT(t)
	srv.doms[0].do(func() {
		for i := 0; i < decisionLogCap+10; i++ {
			srv.doms[0].decSeq++
			r := serveapi.DecisionRecord{Seq: srv.doms[0].decSeq, JobID: "ring"}
			if len(srv.doms[0].decisions) == decisionLogCap {
				srv.doms[0].decisions[srv.doms[0].decHead] = r
				srv.doms[0].decHead = (srv.doms[0].decHead + 1) % decisionLogCap
			} else {
				srv.doms[0].decisions = append(srv.doms[0].decisions, r)
			}
		}
	})
	page, err := c.Decisions(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Decisions) != decisionLogCap {
		t.Fatalf("ring holds %d, want %d", len(page.Decisions), decisionLogCap)
	}
	if page.OldestSeq != 11 || page.Decisions[0].Seq != 11 {
		t.Fatalf("oldest surviving seq = %d, want 11 (first 10 dropped)", page.Decisions[0].Seq)
	}
	if !page.Truncated {
		t.Fatal("cursor below the window did not report truncation")
	}
	for i := 1; i < len(page.Decisions); i++ {
		if page.Decisions[i].Seq != page.Decisions[i-1].Seq+1 {
			t.Fatalf("ring not flattened in order at %d", i)
		}
	}
	// A cursor inside the surviving window is not truncated.
	page, err = c.Decisions(ctx, 11, 5)
	if err != nil || page.Truncated || page.Decisions[0].Seq != 12 {
		t.Fatalf("in-window page: %+v %v", page, err)
	}
}

// TestAdmissionControl fills the wait queue to MaxQueue and checks the
// 429 + Retry-After envelope, then frees a slot and re-admits.
func TestAdmissionControl(t *testing.T) {
	_, c := startServer(t, Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP, MaxQueue: 2})
	ctx := ctxT(t)
	// Saturate the 4 GPUs, then fill the queue.
	if jr, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "hog", GPUs: 4, BatchSize: 4}); err != nil || jr.Status != "placed" {
		t.Fatalf("hog: %+v %v", jr, err)
	}
	for i := 0; i < 2; i++ {
		if jr, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: fmt.Sprintf("w%d", i), GPUs: 1}); err != nil || jr.Status != "queued" {
			t.Fatalf("w%d: %+v %v", i, jr, err)
		}
	}
	// The queue is full: the client retries per Retry-After, then
	// surfaces the queue_full APIError.
	rejecting := client.New(baseURL(c), client.WithMaxRetries(1))
	rejecting.MaxRetryWait = time.Millisecond
	_, err := rejecting.SubmitJob(ctx, serveapi.JobRequest{ID: "overflow", GPUs: 1})
	if !client.IsCode(err, serveapi.CodeQueueFull) {
		t.Fatalf("overflow: %v", err)
	}
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.Status != 429 || ae.RetryAfter < time.Second {
		t.Fatalf("429 shape: %+v", ae)
	}
	if st, err := c.State(ctx); err != nil || st.MaxQueue != 2 || len(st.Queue) != 2 {
		t.Fatalf("state under admission control: %+v %v", st, err)
	}
	// Freeing a queue slot re-admits the next submit without retries.
	if _, err := c.ReleaseJob(ctx, "w0"); err != nil {
		t.Fatal(err)
	}
	if jr, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "overflow", GPUs: 1}); err != nil || jr.Status != "queued" {
		t.Fatalf("after free: %+v %v", jr, err)
	}
}

// TestGracefulDrain: draining rejects submissions with the draining
// envelope but keeps serving releases and reads.
func TestGracefulDrain(t *testing.T) {
	srv, c := startServer(t, Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP})
	ctx := ctxT(t)
	if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "stay", GPUs: 1}); err != nil {
		t.Fatal(err)
	}
	srv.BeginDrain()
	if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "late", GPUs: 1}); !client.IsCode(err, serveapi.CodeDraining) {
		t.Fatalf("submit while draining: %v", err)
	}
	st, err := c.State(ctx)
	if err != nil || !st.Draining {
		t.Fatalf("draining state: %+v %v", st, err)
	}
	if rr, err := c.ReleaseJob(ctx, "stay"); err != nil || rr.Status != "released" {
		t.Fatalf("release while draining: %+v %v", rr, err)
	}
}

// TestServerConcurrentSubmissions hammers the batching loop from many
// goroutines — under -race (CI runs it) this is the proof that the
// event-loop serialization protects the core. Conservation must hold:
// every job is either running or queued, and no GPU is double-owned.
func TestServerConcurrentSubmissions(t *testing.T) {
	srv, c := startServer(t, Config{Spec: specArg(t, "mix[minsky:2+dgx1:1]"), Policy: schedcore.TopoAwareP})
	ctx := ctxT(t)
	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.SubmitJob(ctx, serveapi.JobRequest{
				ID: fmt.Sprintf("c%02d", i), GPUs: 1 + i%2, BatchSize: 1 + i%8,
			})
			if err != nil {
				errs <- fmt.Errorf("c%02d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var running, queued, free, gpus, owned, batches, batchedOps int
	srv.doms[0].do(func() {
		st := srv.doms[0].core.State()
		running = len(st.Jobs())
		queued = srv.doms[0].core.QueueLen()
		free = st.FreeGPUCount()
		gpus = st.Topology().NumGPUs()
		for _, id := range st.Jobs() {
			owned += len(st.Allocation(id).GPUs)
		}
		batches = srv.doms[0].batches
		batchedOps = srv.doms[0].batchedOps
	})
	if running+queued != n {
		t.Fatalf("running %d + queued %d != submitted %d", running, queued, n)
	}
	if owned+free != gpus {
		t.Fatalf("owned %d + free %d != %d GPUs", owned, free, gpus)
	}
	if batchedOps != n || batches < 1 || batches > n {
		t.Fatalf("batching accounting: %d ops over %d batches", batchedOps, batches)
	}
}

// TestBatchingAmortizesSchedule drives one batch of 8 submits directly
// through the loop and proves the group-commit contract: one scheduling
// round, one round record, every submit journaled — deterministically,
// no goroutine timing involved.
func TestBatchingAmortizesSchedule(t *testing.T) {
	logPath := t.TempDir() + "/events.log"
	srv, err := New(Config{Spec: specArg(t, "minsky:2"), Policy: schedcore.TopoAwareP, LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	batch := make([]*op, n)
	for i := range batch {
		j, err := serveapi.JobSpec{JobRequest: serveapi.JobRequest{ID: fmt.Sprintf("b%d", i), GPUs: 1, BatchSize: 1}}.Job()
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = submitOp(j)
	}
	srv.doms[0].do(func() { srv.doms[0].processBatch(batch) })
	placed := 0
	for _, o := range batch {
		select {
		case <-o.done:
		default:
			t.Fatalf("op %s not finished", o.id)
		}
		if o.errCode != "" {
			t.Fatalf("op %s failed: %s %s", o.id, o.errCode, o.errMsg)
		}
		if o.jobResp.Status == "placed" {
			placed++
		}
	}
	if placed != n { // 8 single-GPU jobs on 8 free GPUs
		t.Fatalf("placed %d of %d", placed, n)
	}
	var batches int
	srv.doms[0].do(func() { batches = srv.doms[0].batches })
	if batches != 1 {
		t.Fatalf("batches = %d, want 1", batches)
	}
	srv.Kill() // keep the raw log: no shutdown snapshot

	counts := map[string]int{}
	l, err := openCounting(logPath, counts)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if counts["round"] != 1 {
		t.Fatalf("one batch wrote %d round records, want 1 (Schedule not amortized)", counts["round"])
	}
	if counts["submit"] != n || counts["place"] != n {
		t.Fatalf("journal: %v", counts)
	}
}

func baseURL(c *client.Client) string { return c.BaseURL() }

func asAPIError(err error, out **client.APIError) bool {
	ae, ok := err.(*client.APIError)
	if ok {
		*out = ae
	}
	return ok
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// openCounting opens an event log counting records by type.
func openCounting(path string, counts map[string]int) (*eventlog.Log, error) {
	return eventlog.Open(path, func(r eventlog.Record) error {
		counts[r.Type]++
		return nil
	})
}
