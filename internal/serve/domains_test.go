package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"gputopo/internal/schedcore"
	"gputopo/internal/serveapi"
	"gputopo/internal/serveapi/client"
	"gputopo/internal/workload"
)

// domainDecisions fetches one domain's decision page through the wire
// (the domain cursor is a query parameter the typed client doesn't
// carry).
func domainDecisions(t *testing.T, baseURL string, domain int) serveapi.DecisionsResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/decisions?domain=" + itoa(domain))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decisions?domain=%d: HTTP %d", domain, resp.StatusCode)
	}
	var dr serveapi.DecisionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	return dr
}

func itoa(n int) string {
	return string(rune('0' + n))
}

// TestMultiServerShardedEndToEnd is the acceptance test of the sharded
// serving engine: minsky:4 split hash:2 into two domains of two
// machines, driven through the same /v1 wire surface as a single-core
// server. Submissions must spill across domains until the whole cluster
// is seated, and every wire-visible GPU index must be a cluster-wide
// coordinate, not a domain-local one.
func TestMultiServerShardedEndToEnd(t *testing.T) {
	ms, c := startServer(t, Config{
		Spec: specArg(t, "minsky:4/domains[hash:2]"), Policy: schedcore.TopoAwareP,
	})
	if ms.Domains() != 2 {
		t.Fatalf("domains = %d, want 2", ms.Domains())
	}
	ctx := ctxT(t)

	// Four 4-GPU single-node jobs fill the four machines exactly — but
	// only if the router spills across both domains (each domain owns 8
	// GPUs) and placements come back in global coordinates.
	seen := map[int]string{}
	for _, id := range []string{"a", "b", "c", "d"} {
		jr, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: id, GPUs: 4})
		if err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
		if jr.Status != "placed" || len(jr.GPUs) != 4 {
			t.Fatalf("submit %s: %+v", id, jr)
		}
		for _, g := range jr.GPUs {
			if prev, dup := seen[g]; dup {
				t.Fatalf("GPU %d handed to both %s and %s: placements overlap in global coordinates", g, prev, id)
			}
			seen[g] = id
		}
	}
	if len(seen) != 16 {
		t.Fatalf("4 placements cover %d distinct GPUs, want all 16", len(seen))
	}
	for g := 0; g < 16; g++ {
		if _, ok := seen[g]; !ok {
			t.Fatalf("global GPU %d never placed: indices are not cluster-wide", g)
		}
	}

	// The global job-ID namespace spans domains: re-submitting any taken
	// ID conflicts no matter which domain owns it.
	if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "a", GPUs: 1}); err == nil {
		t.Fatal("duplicate ID accepted")
	}

	// Full cluster: the next job queues in some domain.
	jr, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "e", GPUs: 4})
	if err != nil {
		t.Fatalf("submit e: %v", err)
	}
	if jr.Status != "queued" {
		t.Fatalf("submit e on a full cluster: %+v", jr)
	}

	st, err := c.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Topology != "minsky:4/domains[hash:2]" || st.Machines != 4 || st.GPUs != 16 {
		t.Fatalf("merged shape: %+v", st)
	}
	if st.FreeGPUs != 0 || len(st.Running) != 4 || len(st.Queue) != 1 {
		t.Fatalf("merged occupancy: free=%d running=%d queued=%d", st.FreeGPUs, len(st.Running), len(st.Queue))
	}
	if len(st.Domains) != 2 {
		t.Fatalf("domain breakdown: %+v", st.Domains)
	}
	gpus, running := 0, 0
	for i, ds := range st.Domains {
		if ds.Domain != i || ds.Topology != "minsky:2" || ds.Machines != 2 || ds.GPUs != 8 {
			t.Fatalf("domain %d breakdown: %+v", i, ds)
		}
		gpus += ds.GPUs
		running += ds.Running
	}
	if gpus != st.GPUs || running != len(st.Running) {
		t.Fatalf("domain breakdown does not sum to cluster: %d GPUs, %d running", gpus, running)
	}
	if len(st.Bandwidth) != 4 || st.Bandwidth[2].Machine != 2 {
		t.Fatalf("bandwidth entries not in global machine order: %+v", st.Bandwidth)
	}

	// Releasing a running job wakes the queued one through its domain's
	// own loop; the freed and re-used indices stay global.
	if _, err := c.ReleaseJob(ctx, "a"); err != nil {
		t.Fatalf("release a: %v", err)
	}
	st, err = c.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Running) != 4 || len(st.Queue) != 0 {
		t.Fatalf("release did not wake the queued job: running=%d queued=%d", len(st.Running), len(st.Queue))
	}
	if _, err := c.ReleaseJob(ctx, "a"); err == nil {
		t.Fatal("released job still addressable")
	}

	// Decisions are per-domain cursors; each domain's records must use
	// that domain's global GPU range (machines 0,2 → domain 0; 1,3 →
	// domain 1 under hash:2).
	domGPUs := []map[int]bool{{}, {}}
	for m := 0; m < 4; m++ {
		for g := 4 * m; g < 4*m+4; g++ {
			domGPUs[m%2][g] = true
		}
	}
	total := 0
	for d := 0; d < 2; d++ {
		dr := domainDecisions(t, baseURL(c), d)
		if len(dr.Decisions) == 0 {
			t.Fatalf("domain %d logged no decisions", d)
		}
		total += len(dr.Decisions)
		for _, rec := range dr.Decisions {
			for _, g := range rec.GPUs {
				if !domGPUs[d][g] {
					t.Fatalf("domain %d decision %s uses GPU %d outside its global range", d, rec.JobID, g)
				}
			}
		}
	}
	if total < 5 {
		t.Fatalf("%d decisions across domains, want at least the 5 placements", total)
	}
	if resp, err := http.Get(baseURL(c) + "/v1/decisions?domain=7"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range domain: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
}

// TestMultiServerGeneratedIDsUnique: server-assigned IDs come from the
// cluster-wide namespace, so concurrent-looking submissions across
// domains can never collide.
func TestMultiServerGeneratedIDsUnique(t *testing.T) {
	_, c := startServer(t, Config{
		Spec: specArg(t, "minsky:4/domains[hash:4]"), Policy: schedcore.TopoAwareP,
	})
	ctx := ctxT(t)
	ids := map[string]bool{}
	for i := 0; i < 12; i++ {
		jr, err := c.SubmitJob(ctx, serveapi.JobRequest{GPUs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ids[jr.ID] {
			t.Fatalf("generated ID %q repeated", jr.ID)
		}
		ids[jr.ID] = true
	}
}

// TestMultiServerKillRestartRecovery extends the durability acceptance
// test to the sharded engine: each domain journals to its own log
// (path + .dN), a crash loses nothing synced, and a restart replays
// every domain independently to byte-identical merged state.
func TestMultiServerKillRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "events.log")
	spec := specArg(t, "minsky:4/domains[hash:2]")
	cfg := Config{Spec: spec, Policy: schedcore.TopoAwareP, LogPath: logPath, SnapshotEvery: -1}

	topo, err := spec.Build(spec.EffectiveMachines(1), false)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(workload.GenConfig{Jobs: 40, Seed: 42, ArrivalRate: 10}, topo)
	if err != nil {
		t.Fatal(err)
	}

	ms1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(ms1.Handler())
	c1 := client.New(ts1.URL)
	ctx := ctxT(t)

	var placed []string
	released := 0
	for i, j := range jobs {
		jr, err := c1.SubmitJob(ctx, serveapi.JobRequest{
			ID: j.ID, Model: j.Model.String(), BatchSize: j.BatchSize,
			GPUs: j.GPUs, MinUtility: j.MinUtility, Iterations: j.Iterations,
		})
		if err != nil {
			t.Fatalf("submit %s: %v", j.ID, err)
		}
		if jr.Status == "placed" {
			placed = append(placed, jr.ID)
		}
		if i%6 == 5 && released < len(placed) {
			if _, err := c1.ReleaseJob(ctx, placed[released]); err != nil {
				t.Fatalf("release %s: %v", placed[released], err)
			}
			released++
		}
	}
	// One generated-ID job rides along so the restart must resume the ID
	// counter above it instead of reminting job-1.
	gen1, err := c1.SubmitJob(ctx, serveapi.JobRequest{GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	st1, js1 := pinnedState(t, c1)
	if len(st1.Running) == 0 || len(st1.Queue) == 0 {
		t.Fatalf("workload left no mixed state to recover: %+v", st1)
	}
	dec1 := []serveapi.DecisionsResponse{domainDecisions(t, ts1.URL, 0), domainDecisions(t, ts1.URL, 1)}
	ts1.Close()
	ms1.Kill() // crash: no shutdown snapshots

	for d := 0; d < 2; d++ {
		if _, err := os.Stat(logPath + ".d" + itoa(d)); err != nil {
			t.Fatalf("domain %d log missing: %v", d, err)
		}
	}

	ms2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if ms2.Replayed() == 0 {
		t.Fatal("restart replayed nothing")
	}
	ts2 := httptest.NewServer(ms2.Handler())
	c2 := client.New(ts2.URL)

	_, js2 := pinnedState(t, c2)
	if string(js1) != string(js2) {
		t.Fatalf("merged /v1/state diverged across kill+restart:\n before: %s\n after:  %s", js1, js2)
	}
	for d := 0; d < 2; d++ {
		dec2 := domainDecisions(t, ts2.URL, d)
		a, _ := json.Marshal(dec1[d])
		b, _ := json.Marshal(dec2)
		if string(a) != string(b) {
			t.Fatalf("domain %d decision ring diverged:\n before: %s\n after:  %s", d, a, b)
		}
	}

	// The restart must rebuild the routing state from the replayed
	// domains, not just the cores: recovered IDs stay taken in the global
	// namespace, fresh generated IDs resume past replayed ones, and
	// pre-crash jobs stay addressable — a running one releases and a
	// queued one withdraws through their recovered home domains.
	if _, err := c2.SubmitJob(ctx, serveapi.JobRequest{ID: st1.Running[0].ID, GPUs: 1}); err == nil {
		t.Fatalf("recovered ID %s accepted for resubmission", st1.Running[0].ID)
	}
	gen2, err := c2.SubmitJob(ctx, serveapi.JobRequest{GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if gen2.ID == gen1.ID {
		t.Fatalf("generated ID %q reminted after restart", gen2.ID)
	}
	// Withdraw before release: a release can wake the queued job, while a
	// withdraw never frees capacity, so the statuses stay deterministic.
	rel, err := c2.ReleaseJob(ctx, st1.Queue[0].ID)
	if err != nil {
		t.Fatalf("withdraw of pre-crash job %s after restart: %v", st1.Queue[0].ID, err)
	}
	if rel.Status != "withdrawn" {
		t.Fatalf("pre-crash queued job %s: %+v", st1.Queue[0].ID, rel)
	}
	if rel, err = c2.ReleaseJob(ctx, st1.Running[0].ID); err != nil {
		t.Fatalf("release of pre-crash job %s after restart: %v", st1.Running[0].ID, err)
	} else if rel.Status != "released" {
		t.Fatalf("pre-crash running job %s: %+v", st1.Running[0].ID, rel)
	}

	// The recovered server keeps routing: one more submit, then a
	// graceful close snapshots every domain and bounds the next replay to
	// one record per domain.
	if _, err := c2.SubmitJob(ctx, serveapi.JobRequest{ID: "post-crash", GPUs: 1}); err != nil {
		t.Fatal(err)
	}
	_, js2b := pinnedState(t, c2)
	ts2.Close()
	if err := ms2.Close(); err != nil {
		t.Fatal(err)
	}

	ms3, err := New(cfg)
	if err != nil {
		t.Fatalf("post-snapshot recovery failed: %v", err)
	}
	if ms3.Replayed() != 2 {
		t.Fatalf("snapshots did not bound replay: %d records, want 1 per domain", ms3.Replayed())
	}
	ts3 := httptest.NewServer(ms3.Handler())
	defer ts3.Close()
	defer ms3.Close()
	_, js3 := pinnedState(t, client.New(ts3.URL))
	if string(js2b) != string(js3) {
		t.Fatalf("merged state diverged across snapshot restore:\n before: %s\n after:  %s", js2b, js3)
	}
}

// TestMultiServerStateLogAggregation: with durable domains the merged
// state carries both the per-domain log gauges and their cluster-wide
// aggregate.
func TestMultiServerStateLogAggregation(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "events.log")
	_, c := startServer(t, Config{
		Spec: specArg(t, "minsky:2/domains[hash:2]"), Policy: schedcore.TopoAwareP,
		LogPath: logPath, SnapshotEvery: -1,
	})
	ctx := ctxT(t)
	for i := 0; i < 6; i++ {
		if _, err := c.SubmitJob(ctx, serveapi.JobRequest{GPUs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Log == nil {
		t.Fatal("durable sharded state has no aggregate log gauges")
	}
	sum := serveapi.LogStats{}
	for _, ds := range st.Domains {
		if ds.Log == nil {
			t.Fatalf("domain %d has no log gauges", ds.Domain)
		}
		sum.Records += ds.Log.Records
		sum.Syncs += ds.Log.Syncs
	}
	if sum.Records == 0 || sum.Records != st.Log.Records || sum.Syncs != st.Log.Syncs {
		t.Fatalf("aggregate gauges don't sum the domains: %+v vs %+v", st.Log, sum)
	}
	// Both domains took traffic: the router spreads 6 one-GPU jobs over
	// 2 one-machine domains rather than piling them on one.
	counts := []int{}
	for _, ds := range st.Domains {
		counts = append(counts, ds.Running+ds.Queued)
	}
	sort.Ints(counts)
	if counts[0] == 0 {
		t.Fatalf("router starved a domain: %v", counts)
	}
}

// TestMultiServerPlaceCacheConcurrent hammers a sharded server with
// concurrent submits, releases and state polls — one of the two concurrent
// sharded load runs under -race in CI — and checks that no job was lost
// or duplicated on the way. (Named for the place cache it was written to
// guard; the ROADMAP's "The frozen benchmark's residue" retires the
// TestMultiServer* names together.)
func TestMultiServerPlaceCacheConcurrent(t *testing.T) {
	hammerSharded(t, Config{
		Spec: specArg(t, "minsky:8/domains[hash:4]"), Policy: schedcore.TopoAwareP,
		Discipline: "priority", Preemption: true,
	})
}

// TestMultiServerPlaceCacheConcurrentDurable is the same load on a
// durable server that fsyncs every third batch, so the pooled response
// encoders of concurrent handlers race each other and every domain's
// per-batch Flush, and the restarted server recovers what the load left.
func TestMultiServerPlaceCacheConcurrentDurable(t *testing.T) {
	cfg := Config{
		Spec: specArg(t, "minsky:8/domains[hash:4]"), Policy: schedcore.TopoAwareP,
		Discipline: "priority", Preemption: true,
		LogPath: filepath.Join(t.TempDir(), "events.log"), FsyncEvery: 3,
	}
	srv, c := hammerSharded(t, cfg)
	_, want := pinnedState(t, c)
	srv.Kill()
	_, c2 := startServer(t, cfg)
	if _, got := pinnedState(t, c2); string(got) != string(want) {
		t.Fatalf("/v1/state after the restart:\n %s\nbefore it:\n %s", got, want)
	}
}

// hammerSharded runs concurrent submits, releases and state polls against
// a server started with cfg and checks that every job is accounted for.
func hammerSharded(t *testing.T, cfg Config) (*Server, *client.Client) {
	srv, c := startServer(t, cfg)
	ctx := ctxT(t)

	const workers = 8
	const perWorker = 24
	var withdrawn atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-j%d", w, i)
				jr, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: id, GPUs: 1 + i%4, Priority: i % 2})
				if err != nil {
					t.Errorf("submit %s: %v", id, err)
					return
				}
				if jr.Status == "placed" && i%3 == 0 {
					rr, err := c.ReleaseJob(ctx, id)
					if err != nil {
						t.Errorf("release %s: %v", id, err)
						return
					}
					if rr.Status == "withdrawn" {
						withdrawn.Add(1)
					}
				}
				if i%5 == 0 {
					if _, err := c.State(ctx); err != nil {
						t.Errorf("state: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st, err := c.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A job that runs or ran was placed once more than it was evicted; a
	// queued one was evicted as often as it was placed. So was a withdrawn
	// one, and it is in no queue any more: a job answered "placed" can be
	// evicted before its worker's release arrives, and the release then
	// withdraws it from the queue it was put back on.
	if got := st.Stats.Placements - st.Stats.Evictions + len(st.Queue) + int(withdrawn.Load()); got != workers*perWorker {
		t.Fatalf("%d placements - %d evictions + %d queued + %d withdrawn = %d, want the %d jobs submitted",
			st.Stats.Placements, st.Stats.Evictions, len(st.Queue), withdrawn.Load(), got, workers*perWorker)
	}
	return srv, c
}
