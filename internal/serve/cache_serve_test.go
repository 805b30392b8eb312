package serve

import (
	"fmt"
	"sync"
	"testing"

	"gputopo/internal/schedcore"
	"gputopo/internal/serveapi"
)

// TestStateExposesPlaceCache pins the observability contract: a server
// reports its placement cache's counters in /v1/state.
func TestStateExposesPlaceCache(t *testing.T) {
	_, c := startServer(t, Config{Spec: specArg(t, "minsky:2"), Policy: schedcore.TopoAware})
	ctx := ctxT(t)

	// The class sweep asks the cache once per distinct machine shape, so
	// a hit needs a decision that finds the state as an earlier one left
	// it: place four identical 2-GPU jobs, release the last, submit it
	// again.
	for i := 0; i < 4; i++ {
		if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: fmt.Sprintf("j%d", i), GPUs: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.ReleaseJob(ctx, "j3"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "j4", GPUs: 2}); err != nil {
		t.Fatal(err)
	}
	st, err := c.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlaceCache == nil {
		t.Fatal("server omits place_cache from /v1/state")
	}
	if st.PlaceCache.Misses == 0 {
		t.Fatalf("no cache traffic after 5 topo-aware placements: %+v", st.PlaceCache)
	}
	if st.PlaceCache.Hits == 0 {
		t.Fatalf("an identical job on an unchanged state never hit: %+v", st.PlaceCache)
	}
}

// TestMultiServerPlaceCacheAggregation checks the sharded state merge:
// each domain reports its own counters and the top-level block is their
// sum, mirroring how Decisions and Preemptions aggregate.
func TestMultiServerPlaceCacheAggregation(t *testing.T) {
	_, c := startServer(t, Config{
		Spec: specArg(t, "minsky:4/domains[hash:2]"), Policy: schedcore.TopoAwareP,
	})
	ctx := ctxT(t)
	for i := 0; i < 8; i++ {
		if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: fmt.Sprintf("j%d", i), GPUs: 2}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlaceCache == nil {
		t.Fatal("sharded state omits aggregated place_cache")
	}
	var hits, misses, evs int
	for _, d := range st.Domains {
		if d.PlaceCache == nil {
			t.Fatalf("domain %d omits place_cache", d.Domain)
		}
		hits += d.PlaceCache.Hits
		misses += d.PlaceCache.Misses
		evs += d.PlaceCache.Evictions
	}
	if st.PlaceCache.Hits != hits || st.PlaceCache.Misses != misses || st.PlaceCache.Evictions != evs {
		t.Fatalf("top-level place_cache %+v is not the domain sum {%d %d %d}", st.PlaceCache, hits, misses, evs)
	}
	if misses == 0 {
		t.Fatal("no cache traffic across 8 sharded placements")
	}
}

// TestMultiServerPlaceCacheConcurrent hammers a sharded server with
// concurrent submits, releases and state polls. Each domain's cache is
// shared between its placement path and its preemption victim search on
// that domain's single writer loop; this test (run under -race in CI)
// proves no cross-domain or reader path touches a cache without
// synchronization.
func TestMultiServerPlaceCacheConcurrent(t *testing.T) {
	_, c := startServer(t, Config{
		Spec: specArg(t, "minsky:8/domains[hash:4]"), Policy: schedcore.TopoAwareP,
		Discipline: "priority", Preemption: true,
	})
	ctx := ctxT(t)

	const workers = 8
	const perWorker = 24
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
					if _, err := c.ReleaseJob(ctx, id); err != nil {
						t.Errorf("release %s: %v", id, err)
						return
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
	if st.PlaceCache == nil || st.PlaceCache.Misses == 0 {
		t.Fatalf("no cache traffic under concurrent sharded load: %+v", st.PlaceCache)
	}
}
