package serveapi

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
)

// freshWriteJSON and freshWriteError are the writers as they were before
// the body encoders were pooled: a fresh indenting json.Encoder streaming
// into the ResponseWriter.
func freshWriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func freshWriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(Errorf(code, format, args...))
}

// bigState is a /v1/state body past maxPooledBody.
func bigState() StateResponse {
	st := StateResponse{Topology: "minsky:512", Policy: "TOPO-AWARE-P", Machines: 512, GPUs: 2048, Discipline: "fifo"}
	for i := 0; i < 1500; i++ {
		st.Running = append(st.Running, RunningEntry{ID: "job-" + strconv.Itoa(i), GPUs: []int{4 * i, 4*i + 1}})
	}
	return st
}

// TestWritersMatchFreshEncoder: WriteJSON, WriteError and WriteRetryAfter
// answer every response type with the status, headers and body bytes a
// fresh indenting encoder wrote — a body past the pool's bound and the
// pooled responses after it included, and a value that does not encode
// (no body either way).
func TestWritersMatchFreshEncoder(t *testing.T) {
	single := true
	values := []any{
		JobResponse{ID: "a<b>&", Status: "placed", GPUs: []int{0, 1}, Utility: 0.1 + 0.2, SLOViolated: true, Time: 1e21},
		JobResponse{ID: "q", Status: "queued", Reason: "no-capacity", QueuePosition: 3, Time: 2.5},
		ReleaseResponse{ID: "a", Status: "released", Unblocked: []string{"b", "c\u2028"}},
		ReleaseResponse{ID: "w", Status: "withdrawn"},
		DecisionsResponse{Decisions: []DecisionRecord{}},
		DecisionsResponse{
			Decisions: []DecisionRecord{
				{Seq: 4, Time: 1, JobID: "a", Placed: true, GPUs: []int{2}, Utility: 0.5, Postponements: 1},
				{Seq: 5, Time: 2, JobID: "v", Reason: "preempted", Evicted: true, PreemptedBy: "hi", GPUs: []int{3}},
			},
			NextAfter: 5, OldestSeq: 1, LatestSeq: 9, Truncated: true,
		},
		StateResponse{
			Topology: "minsky:4/domains[hash:2]", Policy: "TOPO-AWARE-P", Machines: 4, GPUs: 16, FreeGPUs: 9,
			UptimeSec: 3.25, ClockSec: 3.5, Durable: true, Draining: true, MaxQueue: 64,
			Running:   []RunningEntry{{ID: "a", GPUs: []int{0, 1}}},
			Queue:     []QueuedEntry{{ID: "q", GPUs: 4, MinUtility: 0.5, Arrival: 2, Priority: 1}},
			Stats:     SchedStats{Decisions: 3, Placements: 2, WakeSkips: 1, Preemptions: 1, Evictions: 1, MeanDecisionUs: 12.5},
			Bandwidth: []BandwidthEntry{{Machine: 0, FreeGBs: 31.5}},
			Decisions: 3, Fragments: 0.25, Discipline: "priority", Preemption: true,
			Log:        &LogStats{Records: 9, SinceSnapshot: 4, BytesSinceSnapshot: 512, Snapshots: 1, ReplayedAtBoot: 2, Syncs: 5},
			Domains:    []DomainState{{Domain: 1, Topology: "minsky:2", Machines: 2, GPUs: 8, FreeGPUs: 4, Log: &LogStats{}}},
			PlaceCache: &PlaceCacheStats{Hits: 1},
		},
		bigState(),
		StateResponse{Topology: "after the big body"},
		JobSpec{JobRequest: JobRequest{ID: "s", Model: "AlexNet", BatchSize: 4, GPUs: 2, SingleNode: &single}, Arrival: 1},
		Errorf(CodeInternal, "direct envelope"),
		JobResponse{ID: "nan", Utility: math.NaN()},
		map[string]int{"b": 2, "a": 1},
	}
	same := func(what string, got, want *httptest.ResponseRecorder) {
		t.Helper()
		if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || got.Body.String() != want.Body.String() {
			t.Fatalf("%s:\n got  %d %v %q\n want %d %v %q", what, got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i, v := range values {
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			WriteJSON(got, v)
			freshWriteJSON(want, v)
			same(fmt.Sprintf("pass %d, WriteJSON(%T #%d)", pass, v, i), got, want)
		}
	}
	for _, c := range []struct {
		status     int
		code, args string
	}{
		{http.StatusNotFound, CodeJobNotFound, `no queued or running job "x<y>"`},
		{http.StatusConflict, CodeJobExists, "job a already exists"},
		{http.StatusServiceUnavailable, CodeReadOnly, "the job's scheduling domain is read-only: eventlog: append: file already closed"},
		{http.StatusBadRequest, CodeInvalidJSON, "invalid job JSON: unexpected EOF"},
	} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		WriteError(got, c.status, c.code, "%s", c.args)
		freshWriteError(want, c.status, c.code, "%s", c.args)
		same("WriteError "+c.code, got, want)
	}
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	WriteRetryAfter(got, 2, "queue depth %d at limit %d", 64, 64)
	want.Header().Set("Retry-After", "2")
	freshWriteError(want, http.StatusTooManyRequests, CodeQueueFull, "queue depth %d at limit %d", 64, 64)
	same("WriteRetryAfter", got, want)
}
