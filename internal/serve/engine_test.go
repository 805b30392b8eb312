package serve

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gputopo/internal/schedcore"
	"gputopo/internal/schedcore/domains"
	"gputopo/internal/serveapi"
	"gputopo/internal/serveapi/client"
)

// getBody fetches a URL and returns the status and raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDomainParamValidatedOnUnsplitServer: ?domain=D is checked against
// the domain count on every server. An unsplit server has one domain, so
// 0 is the same page as no parameter and anything else is invalid_param.
func TestDomainParamValidatedOnUnsplitServer(t *testing.T) {
	_, c := startServer(t, Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP})
	if _, err := c.SubmitJob(ctxT(t), serveapi.JobRequest{ID: "a", GPUs: 2}); err != nil {
		t.Fatal(err)
	}
	status, plain := getBody(t, baseURL(c)+"/v1/decisions")
	if status != http.StatusOK || !bytes.Contains(plain, []byte(`"job_id": "a"`)) {
		t.Fatalf("decisions: %d %s", status, plain)
	}
	if status, zero := getBody(t, baseURL(c)+"/v1/decisions?domain=0"); status != http.StatusOK || !bytes.Equal(zero, plain) {
		t.Fatalf("?domain=0 differs from no parameter: %d\n%s\nvs\n%s", status, zero, plain)
	}
	for _, q := range []string{"domain=1", "domain=-1", "domain=x"} {
		status, body := getBody(t, baseURL(c)+"/v1/decisions?"+q)
		if status != http.StatusBadRequest || !bytes.Contains(body, []byte(serveapi.CodeInvalidParam)) {
			t.Fatalf("%s on an unsplit server: %d %s", q, status, body)
		}
	}
}

// TestGeneratedIDsFollowOneCounter: anonymous jobs are named by one
// monotonic counter — a release does not hand a number out again, a
// restart resumes above the largest recovered job-N, and a number a
// client claimed explicitly is skipped.
func TestGeneratedIDsFollowOneCounter(t *testing.T) {
	cfg := Config{
		Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP,
		LogPath: filepath.Join(t.TempDir(), "events.log"), SnapshotEvery: -1,
	}
	srv, c := startServer(t, cfg)
	ctx := ctxT(t)
	anon := func(c *client.Client) string {
		t.Helper()
		jr, err := c.SubmitJob(ctx, serveapi.JobRequest{GPUs: 1})
		if err != nil {
			t.Fatal(err)
		}
		return jr.ID
	}
	if a, b := anon(c), anon(c); a != "job-1" || b != "job-2" {
		t.Fatalf("first generated IDs %q, %q", a, b)
	}
	if _, err := c.ReleaseJob(ctx, "job-1"); err != nil {
		t.Fatal(err)
	}
	if id := anon(c); id != "job-3" {
		t.Fatalf("generated ID after a release = %q, want job-3", id)
	}
	srv.Kill()

	srv2, c2 := startServer(t, cfg)
	if srv2.Replayed() == 0 {
		t.Fatal("restart replayed nothing")
	}
	if id := anon(c2); id != "job-4" {
		t.Fatalf("generated ID after restart = %q, want job-4 (above the recovered job-3)", id)
	}
	if _, err := c2.SubmitJob(ctx, serveapi.JobRequest{ID: "job-5", GPUs: 1}); err != nil {
		t.Fatal(err)
	}
	if id := anon(c2); id != "job-6" {
		t.Fatalf("generated ID next to a claimed job-5 = %q, want job-6", id)
	}
}

// TestSubmitBodyIsBounded: POST /v1/jobs reads at most maxRequestBytes;
// an oversized body and a truncated one are both invalid_json, and the
// server keeps serving.
func TestSubmitBodyIsBounded(t *testing.T) {
	_, c := startServer(t, Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP})
	post := func(body io.Reader) (int, serveapi.ErrorResponse) {
		t.Helper()
		resp, err := http.Post(baseURL(c)+"/v1/jobs", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		var envelope serveapi.ErrorResponse
		if err := decodeBody(resp, &envelope); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, envelope
	}
	// Well-formed JSON all the way: only the size is wrong.
	huge := `{"gpus":1,"id":"` + strings.Repeat("a", maxRequestBytes) + `"}`
	if status, env := post(strings.NewReader(huge)); status != http.StatusBadRequest ||
		env.Error.Code != serveapi.CodeInvalidJSON || !strings.Contains(env.Error.Message, "too large") {
		t.Fatalf("oversized body: %d %+v", status, env)
	}
	if status, env := post(strings.NewReader(`{"id":"cut","gpus":`)); status != http.StatusBadRequest || env.Error.Code != serveapi.CodeInvalidJSON {
		t.Fatalf("truncated body: %d %+v", status, env)
	}
	if jr, err := c.SubmitJob(ctxT(t), serveapi.JobRequest{ID: "fine", GPUs: 1}); err != nil || jr.Status != "placed" {
		t.Fatalf("submit after hostile bodies: %+v %v", jr, err)
	}
	if st, err := c.State(ctxT(t)); err != nil || len(st.Running) != 1 {
		t.Fatalf("hostile bodies left state behind: %+v %v", st, err)
	}
}

// TestGlobalGPUMapsMatchClusterTopology: the local → global GPU maps are
// computed from per-machine GPU counts alone; they must agree with the
// positions the cluster-wide topology gives each machine, on every split
// strategy and on machines of unequal size. Unsplit specs and 1-domain
// splits get the identity (nil).
func TestGlobalGPUMapsMatchClusterTopology(t *testing.T) {
	for _, arg := range []string{
		"minsky:3",
		"minsky:3/domains[hash:1]",
		"minsky:5/domains[hash:2]",
		"minsky:5/domains[block:2]",
		"mix[minsky:2+dgx1:1+minsky-1g:2]",
		"mix[minsky:2+dgx1:1+minsky-1g:2]/domains[kind]",
		"mix[dgx1:1+minsky-1g:2+minsky:1]/domains[hash:3]",
	} {
		spec := specArg(t, arg)
		srv, err := New(Config{Spec: spec, Policy: schedcore.TopoAwareP})
		if err != nil {
			t.Fatalf("%s: %v", arg, err)
		}
		global, err := spec.Build(spec.EffectiveMachines(1), false)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for d, dom := range srv.doms {
			var want []int
			for _, m := range srv.machines[d] {
				want = append(want, global.GPUsOfMachine(m)...)
			}
			locals := make([]int, dom.topo.NumGPUs())
			for i := range locals {
				locals[i] = i
			}
			if got := domains.GlobalGPUs(srv.gpuMaps[d], locals); !slices.Equal(got, want) {
				t.Fatalf("%s domain %d: map %v, cluster topology says %v", arg, d, got, want)
			}
			if (srv.gpuMaps[d] == nil) != slices.Equal(want, locals) {
				t.Fatalf("%s domain %d: nil map = %v, but the map is %v", arg, d, srv.gpuMaps[d] == nil, want)
			}
			seen += len(want)
		}
		if seen != global.NumGPUs() || srv.gpus != seen {
			t.Fatalf("%s: domains cover %d GPUs, server counts %d, cluster has %d", arg, seen, srv.gpus, global.NumGPUs())
		}
		if len(srv.doms) == 1 && srv.gpuMaps[0] != nil {
			t.Fatalf("%s: a lone domain's map is not the identity", arg)
		}
		srv.Close()
	}
}

// TestStateCarriesNoPlaceCache pins a deliberate wire change: the
// place-cache LRU is gone from the scheduler, and with it the
// "place_cache" object of /v1/state — top level and per domain, unsplit
// and split.
func TestStateCarriesNoPlaceCache(t *testing.T) {
	for _, topo := range []string{"minsky:2", "minsky:4/domains[hash:2]"} {
		_, c := startServer(t, Config{Spec: specArg(t, topo), Policy: schedcore.TopoAwareP})
		for _, id := range []string{"a", "b"} {
			if _, err := c.SubmitJob(ctxT(t), serveapi.JobRequest{ID: id, GPUs: 2}); err != nil {
				t.Fatal(err)
			}
		}
		status, body := getBody(t, baseURL(c)+"/v1/state")
		if status != http.StatusOK || !bytes.Contains(body, []byte(`"free_gpus"`)) {
			t.Fatalf("%s: state: %d %s", topo, status, body)
		}
		if split := strings.Contains(topo, "/domains"); split != bytes.Contains(body, []byte(`"domains"`)) {
			t.Fatalf("%s: domains array presence, want %v: %s", topo, split, body)
		}
		if bytes.Contains(body, []byte("place_cache")) {
			t.Fatalf("%s: /v1/state still carries place_cache: %s", topo, body)
		}
	}
}
