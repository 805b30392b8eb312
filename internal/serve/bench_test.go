package serve

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gputopo/internal/schedcore"
	"gputopo/internal/sweep"
)

// handlerOn starts a server on the topology spec arg, durable or not, and
// returns its HTTP handler; the server closes with tb.
func handlerOn(tb testing.TB, arg string, durable bool) http.Handler {
	tb.Helper()
	spec, err := sweep.ParseTopologyArg(arg)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{Spec: spec, Policy: schedcore.TopoAwareP}
	if durable {
		cfg.LogPath = filepath.Join(tb.TempDir(), "events.log")
	}
	srv, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv.Handler()
}

// submit POSTs a job of gpus GPUs through h and returns the response body.
func submit(tb testing.TB, h http.Handler, id string, gpus int) string {
	tb.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"id":"`+id+`","model":"AlexNet","gpus":`+strconv.Itoa(gpus)+`}`)))
	if w.Code != http.StatusOK {
		tb.Fatalf("submit %s: %d %s", id, w.Code, w.Body)
	}
	return w.Body.String()
}

// submitRelease sends one 1-GPU job's POST /v1/jobs, which must place it,
// and its DELETE through h.
func submitRelease(tb testing.TB, h http.Handler, id string) {
	tb.Helper()
	if body := submit(tb, h, id, 1); !strings.Contains(body, `"placed"`) {
		tb.Fatalf("submit %s: %s", id, body)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+id, nil))
	if w.Code != http.StatusOK {
		tb.Fatalf("release %s: %d %s", id, w.Code, w.Body)
	}
}

// BenchmarkServeSubmitRelease times one job's round trip through the
// HTTP handler, no network in between: a POST /v1/jobs that places a
// 1-GPU job on an idle minsky:16, then its DELETE. The durable case adds
// the event log: both batches' records framed, written and fsynced.
func BenchmarkServeSubmitRelease(b *testing.B) {
	for _, c := range []struct {
		name    string
		durable bool
	}{{"memory", false}, {"durable", true}} {
		b.Run(c.name, func(b *testing.B) {
			h := handlerOn(b, "minsky:16", c.durable)
			b.ReportAllocs()
			n := 0
			for b.Loop() {
				n++
				submitRelease(b, h, "b"+strconv.Itoa(n))
			}
		})
	}
}

// TestServeSubmitReleaseAllocs: the event log adds no allocation to a
// durable server's POST + DELETE pair — the frames are encoded into the
// log's own buffer and each batch is one write — so the pair allocates no
// more than on an in-memory server. Each side reads its fewest objects
// per pair over three measurements, so a stray allocation of the runtime
// does not decide it.
func TestServeSubmitReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so pooled encoders allocate")
	}
	allocs := map[bool]float64{}
	for _, durable := range []bool{false, true} {
		h := handlerOn(t, "minsky:16", durable)
		n := 0
		for range 3 {
			a := testing.AllocsPerRun(100, func() {
				n++
				submitRelease(t, h, "a"+strconv.Itoa(n))
			})
			if v, ok := allocs[durable]; !ok || a < v {
				allocs[durable] = a
			}
		}
	}
	if allocs[true] > allocs[false] {
		t.Fatalf("a durable POST + DELETE pair allocates %v objects, an in-memory one %v", allocs[true], allocs[false])
	}
}

// BenchmarkServeState times GET /v1/state through the HTTP handler on an
// in-memory minsky:128 (512 GPUs) with about 70 % of its GPUs held by
// 1-, 2- and 4-GPU jobs: the state walk, the cluster-wide merge and the
// response encoding.
func BenchmarkServeState(b *testing.B) {
	h := handlerOn(b, "minsky:128", false)
	held := 0
	for i := 0; held < 512*7/10; i++ {
		gpus := []int{1, 2, 4}[i%3]
		if body := submit(b, h, "s"+strconv.Itoa(i), gpus); strings.Contains(body, `"placed"`) {
			held += gpus
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/state", nil)
	b.ReportAllocs()
	for b.Loop() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("state: %d %s", w.Code, w.Body)
		}
	}
}
