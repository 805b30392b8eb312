package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"gputopo/internal/perfmodel"
	"gputopo/internal/schedcore"
	"gputopo/internal/serveapi"
	"gputopo/internal/serveapi/client"
)

// wantReadOnly fails t unless err is a 503 read_only answer.
func wantReadOnly(t *testing.T, what string, err error) {
	t.Helper()
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != serveapi.CodeReadOnly {
		t.Fatalf("%s: %v, want 503 %s", what, err, serveapi.CodeReadOnly)
	}
}

// domainPart is domain d's part of a pinned /v1/state: its summary and
// the running and queued entries of the jobs homed to it.
func domainPart(st *serveapi.StateResponse, d int, ids map[string]bool) []byte {
	part := struct {
		Domain  *serveapi.DomainState
		Running []serveapi.RunningEntry
		Queue   []serveapi.QueuedEntry
	}{}
	if st.Domains != nil {
		part.Domain = &st.Domains[d]
	}
	for _, r := range st.Running {
		if ids[r.ID] {
			part.Running = append(part.Running, r)
		}
	}
	for _, q := range st.Queue {
		if ids[q.ID] {
			part.Queue = append(part.Queue, q)
		}
	}
	js, _ := json.Marshal(part)
	return js
}

// ring reads domain dom's whole decision ring on its loop.
func ring(t *testing.T, dom *domain) []serveapi.DecisionRecord {
	t.Helper()
	var page serveapi.DecisionsResponse
	if !dom.do(func() { page = dom.decisionsPage(0, decisionLogCap) }) {
		t.Fatal("domain shut down")
	}
	return page.Decisions
}

// TestFailedLogAppendRollsBackDomain closes a domain's event log under it,
// so the next batch's append fails, and holds the rollback to its
// contract: the batch answers 503 read_only; the domain's part of
// /v1/state and its decision ring read as they did before the batch
// (the core was rebuilt from the log); later writes to the domain answer
// 503 while another domain keeps serving; and a restart after Kill
// recovers the pre-batch state of that domain.
func TestFailedLogAppendRollsBackDomain(t *testing.T) {
	for _, arg := range []string{"minsky:2", "minsky:4/domains[hash:2]"} {
		t.Run(arg, func(t *testing.T) {
			ctx := ctxT(t)
			spec := specArg(t, arg)
			cfg := Config{Spec: spec, Policy: schedcore.TopoAwareP, LogPath: filepath.Join(t.TempDir(), "events.log"), SnapshotEvery: -1}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			c := client.New(ts.URL)
			mixedTraffic(t, spec, c)
			pre, preJS := pinnedState(t, c)
			if len(pre.Running) < 2 {
				t.Fatalf("workload left too few running jobs: %+v", pre)
			}

			// The failing domain is the first running job's home; its jobs
			// and the other domains' are told apart by the home map.
			srv.mu.Lock()
			fd := srv.home[pre.Running[0].ID]
			homed := make([]map[string]bool, len(srv.doms))
			for d := range homed {
				homed[d] = map[string]bool{}
			}
			for id, d := range srv.home {
				homed[d][id] = true
			}
			srv.mu.Unlock()
			dom := srv.doms[fd]
			preRing := ring(t, dom)
			prePart := domainPart(pre, fd, homed[fd])

			dom.do(func() { dom.log.Close() })
			_, err = c.ReleaseJob(ctx, pre.Running[0].ID)
			wantReadOnly(t, "the failed batch's release", err)

			now, nowJS := pinnedState(t, c)
			if string(nowJS) != string(preJS) {
				t.Fatalf("/v1/state after the rollback:\n %s\nbefore the batch:\n %s", nowJS, preJS)
			}
			if got := ring(t, dom); !reflect.DeepEqual(got, preRing) {
				t.Fatalf("decision ring after the rollback has %d records, before the batch %d", len(got), len(preRing))
			}
			if got := srv.Replayed(); got == 0 {
				t.Fatal("the rollback replayed nothing")
			}

			// Later writes to the domain: a release or withdrawal of another
			// of its jobs, and on an unsplit server a submit.
			var later []string
			for _, r := range now.Running[1:] {
				later = append(later, r.ID)
			}
			for _, q := range now.Queue {
				later = append(later, q.ID)
			}
			later = slices.DeleteFunc(later, func(id string) bool { return !homed[fd][id] })
			if len(later) == 0 {
				t.Fatalf("domain %d holds no second job to write to", fd)
			}
			_, err = c.ReleaseJob(ctx, later[0])
			wantReadOnly(t, "a later DELETE", err)
			if !srv.split {
				_, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "later", GPUs: 1})
				wantReadOnly(t, "a later submit", err)
			}
			// Every other domain keeps taking writes.
			for d := range srv.doms {
				if d == fd {
					continue
				}
				var id string
				for _, r := range now.Running {
					if homed[d][r.ID] {
						id = r.ID
						break
					}
				}
				if id == "" {
					t.Fatalf("domain %d runs no job to release", d)
				}
				if rr, err := c.ReleaseJob(ctx, id); err != nil || rr.Status != "released" {
					t.Fatalf("domain %d: DELETE %s: %+v %v", d, id, rr, err)
				}
			}
			post, postJS := pinnedState(t, c)
			if got := domainPart(post, fd, homed[fd]); string(got) != string(prePart) {
				t.Fatalf("domain %d after the other domains' writes:\n %s\nbefore the batch:\n %s", fd, got, prePart)
			}

			ts.Close()
			srv.Kill()
			srv2, err := New(cfg)
			if err != nil {
				t.Fatalf("restart after the rollback: %v", err)
			}
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()
			defer srv2.Close()
			_, js := pinnedState(t, client.New(ts2.URL))
			if string(js) != string(postJS) {
				t.Fatalf("/v1/state after the restart:\n %s\nbefore it:\n %s", js, postJS)
			}
			if !srv.split && string(js) != string(preJS) {
				t.Fatalf("/v1/state after the restart:\n %s\nbefore the failed batch:\n %s", js, preJS)
			}
		})
	}
}

// TestCoreFaultRollsBackDomain gives a job an allocation on the domain's
// cluster state behind its core, then submits it: the placement's
// allocation is refused, a core fault. A durable domain rolls back by
// replay — which does not know the stray allocation either — and serves
// reads of the pre-batch state; an in-memory one has no log to replay, so
// it is lost and reads answer 503 as well.
func TestCoreFaultRollsBackDomain(t *testing.T) {
	for _, durable := range []bool{true, false} {
		t.Run(map[bool]string{true: "durable", false: "in-memory"}[durable], func(t *testing.T) {
			ctx := ctxT(t)
			cfg := Config{Spec: specArg(t, "minsky:2"), Policy: schedcore.TopoAwareP, SnapshotEvery: -1}
			if durable {
				cfg.LogPath = filepath.Join(t.TempDir(), "events.log")
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Kill()
			c := client.New(ts.URL)
			if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "a", GPUs: 2}); err != nil {
				t.Fatal(err)
			}
			_, preJS := pinnedState(t, c)
			dom := srv.doms[0]
			dom.do(func() {
				st := dom.core.State()
				err = st.Allocate("w", st.FreeGPUs()[:1], 0, perfmodel.Traits{GPUs: 1})
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.SubmitJob(ctx, serveapi.JobRequest{ID: "w", GPUs: 1})
			wantReadOnly(t, "the faulted submit", err)
			_, err = c.State(ctx)
			if !durable {
				wantReadOnly(t, "a read of the lost domain", err)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, js := pinnedState(t, c); string(js) != string(preJS) {
				t.Fatalf("/v1/state after the rollback:\n %s\nbefore the batch:\n %s", js, preJS)
			}
			_, err = c.ReleaseJob(ctx, "a")
			wantReadOnly(t, "a later release", err)
		})
	}
}

// TestFailedRollbackLosesDomain makes the rollback itself fail: the log
// path is a directory by the time the batch is cut back, so the cut
// fails. The domain is lost: writes and reads answer 503 read_only, and
// Kill still stops the server.
func TestFailedRollbackLosesDomain(t *testing.T) {
	ctx := ctxT(t)
	logPath := filepath.Join(t.TempDir(), "events.log")
	srv, err := New(Config{Spec: specArg(t, "minsky:2"), Policy: schedcore.TopoAwareP, LogPath: logPath, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "a", GPUs: 2}); err != nil {
		t.Fatal(err)
	}
	dom := srv.doms[0]
	dom.do(func() {
		dom.log.Close()
		if err = os.Remove(logPath); err == nil {
			err = os.Mkdir(logPath, 0o755)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitJob(ctx, serveapi.JobRequest{ID: "b", GPUs: 1})
	wantReadOnly(t, "the failed batch's submit", err)
	_, err = c.State(ctx)
	wantReadOnly(t, "GET /v1/state", err)
	_, err = c.Decisions(ctx, 0, 10)
	wantReadOnly(t, "GET /v1/decisions", err)
	_, err = c.ReleaseJob(ctx, "a")
	wantReadOnly(t, "a later release", err)
	srv.Kill()
}

// TestReadOnlyDomainRoutesNoSubmissions rolls domain 0 of an empty
// minsky:4/domains[hash:2] back (its log closed under it, then a submit
// routed there): the router then seats every submission on domain 1 while
// it has room and queues there once it is full, and only when domain 1
// is read-only as well does a submission answer 503 read_only — never
// 400, though no domain takes it.
func TestReadOnlyDomainRoutesNoSubmissions(t *testing.T) {
	ctx := ctxT(t)
	srv, c := startServer(t, Config{Spec: specArg(t, "minsky:4/domains[hash:2]"), Policy: schedcore.TopoAwareP,
		LogPath: filepath.Join(t.TempDir(), "events.log"), SnapshotEvery: -1})
	d0 := srv.doms[0]
	d0.do(func() { d0.log.Close() })
	_, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "first", GPUs: 1})
	wantReadOnly(t, "the submit that rolls domain 0 back", err)

	homeOf := func(id string) int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		d, ok := srv.home[id]
		if !ok {
			t.Fatalf("job %s has no home", id)
		}
		return d
	}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("j%d", i)
		jr, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: id, GPUs: 1})
		if err != nil || jr.Status != "placed" || homeOf(id) != 1 {
			t.Fatalf("submit %s with domain 0 read-only: %+v %v", id, jr, err)
		}
	}
	jr, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "queued", GPUs: 1})
	if err != nil || jr.Status != "queued" || homeOf("queued") != 1 {
		t.Fatalf("submit to a full live domain beside a read-only one: %+v %v", jr, err)
	}

	d1 := srv.doms[1]
	d1.do(func() { d1.log.Close() })
	_, err = c.ReleaseJob(ctx, "j0")
	wantReadOnly(t, "the release that rolls domain 1 back", err)
	_, err = c.SubmitJob(ctx, serveapi.JobRequest{ID: "last", GPUs: 1})
	wantReadOnly(t, "a submit with every domain read-only", err)
}
