package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gputopo/internal/schedcore"
	"gputopo/internal/serveapi"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/unsplit_transcript.golden from this run")

// transcriptStep is one request of the scripted history; at is the
// reading of the fixed time source while it is served.
type transcriptStep struct {
	at     float64
	method string
	path   string
	body   string
}

// unsplitScript is a scripted history for an unsplit minsky:2 server
// with MaxQueue 2: anonymous IDs with no release between them, every
// reject envelope, a queued job, a full queue, a release that unblocks
// the waiter, a withdraw, and paged reads of state and decisions.
var unsplitScript = []transcriptStep{
	{1, "POST", "/v1/jobs", `{"gpus":2}`},
	{2, "POST", "/v1/jobs", `{"gpus":1,"model":"GoogLeNet","batch_size":4,"min_utility":0.5}`},
	{2, "POST", "/v1/jobs", `{"id":"wide","gpus":4,"model":"CaffeRef","batch_size":16}`},
	{2, "POST", "/v1/jobs", `{"id":"bad","gpus":1,"model":"ResNet"}`},
	{2, "POST", "/v1/jobs", `{"id":"zero","gpus":0}`},
	{2, "POST", "/v1/jobs", `{`},
	{2, "POST", "/v1/jobs", `{"id":"typo","gpus":1,"gpu_count":1}`},
	{3, "POST", "/v1/jobs", `{"id":"waiter","gpus":2,"batch_size":4}`},
	{3, "POST", "/v1/jobs", `{"id":"waiter","gpus":1}`},
	{4, "POST", "/v1/jobs", `{"id":"cancelme","gpus":4,"priority":1}`},
	{4, "POST", "/v1/jobs", `{"id":"overflow","gpus":1}`},
	{4, "GET", "/v1/state", ""},
	{4, "GET", "/v1/decisions?after=0&limit=3", ""},
	{5, "DELETE", "/v1/jobs/job-1", ""},
	{6, "DELETE", "/v1/jobs/cancelme", ""},
	{6, "DELETE", "/v1/jobs/nosuch", ""},
	{6, "DELETE", "/v1/jobs/job-1", ""},
	{7, "GET", "/v1/state", ""},
	{7, "GET", "/v1/decisions", ""},
	{7, "GET", "/v1/decisions?after=2&limit=2", ""},
	{7, "GET", "/v1/decisions?limit=0", ""},
	{7, "GET", "/healthz", ""},
}

// runTranscript drives the script against a fresh server (MaxQueue 2,
// the script's fixed time source) of the given topology, durable when
// logPath is set, and renders every exchange as text. /v1/state answers
// have their volatile fields cleared and pass through normalize when it
// is not nil; everything else is the raw body.
func runTranscript(t *testing.T, topology, logPath string, script []transcriptStep, normalize func(*serveapi.StateResponse)) string {
	t.Helper()
	var now float64
	srv, err := New(Config{
		Spec: specArg(t, topology), Policy: schedcore.TopoAwareP, MaxQueue: 2,
		LogPath: logPath, Now: func() float64 { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	var out strings.Builder
	for _, st := range script {
		now = st.at
		req, err := http.NewRequest(st.method, ts.URL+st.path, strings.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.path == "/v1/state" {
			var state serveapi.StateResponse
			if err := json.Unmarshal(body, &state); err != nil {
				t.Fatalf("%s %s: %v", st.method, st.path, err)
			}
			state.ClearVolatile()
			if normalize != nil {
				normalize(&state)
			}
			if body, err = json.MarshalIndent(state, "", "  "); err != nil {
				t.Fatal(err)
			}
			body = append(body, '\n')
		}
		fmt.Fprintf(&out, "t=%g %s %s %s\n-> %d", st.at, st.method, st.path, st.body, resp.StatusCode)
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			fmt.Fprintf(&out, " Retry-After=%s", ra)
		}
		fmt.Fprintf(&out, "\n%s\n", body)
	}
	return out.String()
}

// TestUnsplitTranscriptGolden replays the scripted unsplit history
// against the transcript recorded from the engine that served unsplit
// specs before the single/sharded pair was folded into one: an unsplit
// server is the N = 1 instance of the one engine, and every answer must
// still be byte for byte what the dedicated single-core engine gave.
func TestUnsplitTranscriptGolden(t *testing.T) {
	const path = "testdata/unsplit_transcript.golden"
	got := runTranscript(t, "minsky:2", "", unsplitScript, nil)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Fatalf("unsplit transcript differs from %s:\n%s", path, firstDiff(got, string(want)))
	}
}

// TestUnsplitEqualsOneDomainSplit drives the same script at minsky:2 and
// at minsky:2/domains[hash:1]. Both are one domain behind the one front,
// so every answer, decision and running set is the same; what differs is
// exactly what is read off the spec — the topology key, the domains
// array in /v1/state and the log's file name.
func TestUnsplitEqualsOneDomainSplit(t *testing.T) {
	run := func(topology string, wantDomains int, wantLog string) string {
		dir := t.TempDir()
		states := 0
		out := runTranscript(t, topology, filepath.Join(dir, "events.log"), unsplitScript, func(st *serveapi.StateResponse) {
			states++
			if st.Topology != topology || len(st.Domains) != wantDomains {
				t.Fatalf("%s: state reports topology %q and %d domains, want %d", topology, st.Topology, len(st.Domains), wantDomains)
			}
			st.Topology, st.Domains = "", nil
		})
		if states == 0 {
			t.Fatal("script read no state")
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 1 || files[0].Name() != wantLog {
			t.Fatalf("%s journals to %v, want only %s", topology, files, wantLog)
		}
		return out
	}
	unsplit := run("minsky:2", 0, "events.log")
	split := run("minsky:2/domains[hash:1]", 1, "events.log.d0")
	if unsplit != split {
		t.Fatalf("a 1-domain split answers differently from the unsplit spec:\n%s", firstDiff(split, unsplit))
	}
}

// firstDiff names the first line on which two transcripts differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got:  %s\n want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("one is a prefix of the other: %d vs %d lines", len(g), len(w))
}
