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

// BenchmarkServeSubmitRelease times one job's round trip through the
// HTTP handler, no network in between: a POST /v1/jobs that places a
// 1-GPU job on an idle minsky:16, then its DELETE. The durable case adds
// the event log's append and fsync of both records.
func BenchmarkServeSubmitRelease(b *testing.B) {
	spec, err := sweep.ParseTopologyArg("minsky:16")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		durable bool
	}{{"memory", false}, {"durable", true}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := Config{Spec: spec, Policy: schedcore.TopoAwareP}
			if c.durable {
				cfg.LogPath = filepath.Join(b.TempDir(), "events.log")
			}
			srv, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			b.ReportAllocs()
			n := 0
			for b.Loop() {
				n++
				id := "b" + strconv.Itoa(n)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs",
					strings.NewReader(`{"id":"`+id+`","model":"AlexNet","gpus":1}`)))
				if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"placed"`) {
					b.Fatalf("submit %s: %d %s", id, w.Code, w.Body)
				}
				w = httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+id, nil))
				if w.Code != http.StatusOK {
					b.Fatalf("release %s: %d %s", id, w.Code, w.Body)
				}
			}
		})
	}
}
