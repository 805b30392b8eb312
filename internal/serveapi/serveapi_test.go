package serveapi

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
)

func boolp(b bool) *bool { return &b }

// TestWireRoundTrip marshals every wire type, unmarshals it back, and
// re-marshals: both the value and the bytes must be stable, so the JSON
// layer can never silently drop or rename a field.
func TestWireRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		v    any
		new  func() any
	}{
		{"job_request", &JobRequest{
			ID: "j1", Model: "GoogLeNet", BatchSize: 4, GPUs: 2, MinUtility: 0.5,
			Iterations: 1000, SingleNode: boolp(false), AntiCollocate: true, ModelParallel: true,
		}, func() any { return &JobRequest{} }},
		{"job_request_zero", &JobRequest{GPUs: 1}, func() any { return &JobRequest{} }},
		{"job_spec", &JobSpec{
			JobRequest: JobRequest{ID: "j2", Model: "AlexNet", BatchSize: 1, GPUs: 4, SingleNode: boolp(true)},
			Arrival:    12.5,
		}, func() any { return &JobSpec{} }},
		{"job_response_placed", &JobResponse{
			ID: "j1", Status: "placed", GPUs: []int{0, 1}, Utility: 0.875, SLOViolated: true, Time: 3.25,
		}, func() any { return &JobResponse{} }},
		{"job_response_queued", &JobResponse{
			ID: "j2", Status: "queued", Reason: "no-capacity", Time: 4.5, QueuePosition: 3,
		}, func() any { return &JobResponse{} }},
		{"release_response", &ReleaseResponse{
			ID: "j1", Status: "released", Unblocked: []string{"j2", "j3"},
		}, func() any { return &ReleaseResponse{} }},
		{"decision_record", &DecisionRecord{
			Seq: 7, Time: 1.5, JobID: "j1", Placed: true, GPUs: []int{2, 3},
			Utility: 0.75, SLOViolated: true, Postponements: 2,
		}, func() any { return &DecisionRecord{} }},
		{"decision_postponed", &DecisionRecord{
			Seq: 8, Time: 1.5, JobID: "j2", Reason: "low-utility",
		}, func() any { return &DecisionRecord{} }},
		{"decisions_response", &DecisionsResponse{
			Decisions: []DecisionRecord{{Seq: 5, JobID: "a", Placed: true, GPUs: []int{0}}},
			NextAfter: 5, OldestSeq: 3, LatestSeq: 9, Truncated: true,
		}, func() any { return &DecisionsResponse{} }},
		{"state_response", &StateResponse{
			Topology: "minsky:2", Policy: "TOPO-AWARE-P", Machines: 2, GPUs: 8, FreeGPUs: 3,
			UptimeSec: 9.5, ClockSec: 8.25, Durable: true, Draining: true, MaxQueue: 64,
			Running:   []RunningEntry{{ID: "j1", GPUs: []int{0, 1}}},
			Queue:     []QueuedEntry{{ID: "j2", GPUs: 4, MinUtility: 0.5, Arrival: 2.5}},
			Bandwidth: []BandwidthEntry{{Machine: 0, FreeGBs: 64}},
			Stats: SchedStats{
				Decisions: 9, Placements: 4, Postponements: 5, SLOViolations: 1,
				WakeSkips: 3, MeanDecisionUs: 12.5, MaxDecisionUs: 80, TotalDecisionMs: 0.5,
			},
			Decisions: 9, Fragments: 1.25, Discipline: "fifo-arrival",
		}, func() any { return &StateResponse{} }},
		{"state_response_sharded", &StateResponse{
			Topology: "minsky:4/domains[hash:2]", Policy: "TOPO-AWARE-P", Machines: 4, GPUs: 16,
			Log: &LogStats{
				Records: 40, SinceSnapshot: 8, BytesSinceSnapshot: 4096,
				Snapshots: 2, ReplayedAtBoot: 11, Syncs: 13,
			},
			Domains: []DomainState{
				{Domain: 0, Topology: "minsky:2", Machines: 2, GPUs: 8, FreeGPUs: 5,
					Running: 2, Queued: 1, Decisions: 20,
					Log: &LogStats{Records: 20, SinceSnapshot: 4, BytesSinceSnapshot: 2048, Snapshots: 1, ReplayedAtBoot: 6, Syncs: 7}},
				{Domain: 1, Topology: "minsky:2", Machines: 2, GPUs: 8, FreeGPUs: 8},
			},
		}, func() any { return &StateResponse{} }},
		{"error_response", &ErrorResponse{
			Error: ErrorBody{Code: CodeJobNotFound, Message: `no job "x"`},
		}, func() any { return &ErrorResponse{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			back := tc.new()
			if err := json.Unmarshal(first, back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tc.v, back) {
				t.Fatalf("value drifted:\n want %+v\n got  %+v", tc.v, back)
			}
			second, err := json.Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if string(first) != string(second) {
				t.Fatalf("bytes drifted:\n want %s\n got  %s", first, second)
			}
		})
	}
}

// TestJobSpecJobRoundTrip pins JobSpec.Job ↔ SpecOf as exact inverses:
// the event log stores specs, and replay must rebuild the same job.
func TestJobSpecJobRoundTrip(t *testing.T) {
	specs := []JobSpec{
		{JobRequest: JobRequest{ID: "a", Model: "AlexNet", BatchSize: 1, GPUs: 1, SingleNode: boolp(true)}, Arrival: 0},
		{JobRequest: JobRequest{ID: "b", Model: "GoogLeNet", BatchSize: 4, GPUs: 2, MinUtility: 0.5,
			Iterations: 1234, SingleNode: boolp(true)}, Arrival: 7.5},
		{JobRequest: JobRequest{ID: "c", Model: "CaffeRef", BatchSize: 16, GPUs: 4, MinUtility: 0.3,
			SingleNode: boolp(false), AntiCollocate: true}, Arrival: 99},
		{JobRequest: JobRequest{ID: "d", Model: "AlexNet", BatchSize: 8, GPUs: 2, SingleNode: boolp(true),
			ModelParallel: true}, Arrival: 1},
	}
	for _, spec := range specs {
		j, err := spec.Job()
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		got := SpecOf(j)
		// Job() fills defaults (iterations); apply them to the expectation.
		want := spec
		if want.Iterations == 0 {
			want.Iterations = perfmodel.DefaultIterations
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: spec drifted through job:\n want %+v\n got  %+v", spec.ID, want, got)
		}
	}
}

// TestJobSpecDefaults pins the server-side defaulting: empty model,
// zero batch and the SingleNode default of job.New.
func TestJobSpecDefaults(t *testing.T) {
	j, err := JobSpec{JobRequest: JobRequest{ID: "d", GPUs: 1}}.Job()
	if err != nil {
		t.Fatal(err)
	}
	if j.Model != perfmodel.AlexNet || j.BatchSize != 1 || !j.SingleNode {
		t.Fatalf("defaults not applied: %+v", j)
	}
	if _, err := (JobSpec{JobRequest: JobRequest{ID: "bad", Model: "ResNet", GPUs: 1}}).Job(); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := (JobSpec{JobRequest: JobRequest{ID: "bad", GPUs: 0}}).Job(); err == nil {
		t.Fatal("zero GPUs accepted")
	}
}

// TestJobSpecOfValidatesBack checks SpecOf output rebuilds a valid job
// for a job constructed through the job package directly.
func TestJobSpecOfValidatesBack(t *testing.T) {
	orig := job.New("x", perfmodel.GoogLeNet, 4, 2, 0.5, 3.25)
	orig.Iterations = 777
	rebuilt, err := SpecOf(orig).Job()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.ID != orig.ID || rebuilt.Model != orig.Model || rebuilt.BatchSize != orig.BatchSize ||
		rebuilt.GPUs != orig.GPUs || rebuilt.MinUtility != orig.MinUtility ||
		rebuilt.Arrival != orig.Arrival || rebuilt.Iterations != orig.Iterations ||
		rebuilt.SingleNode != orig.SingleNode {
		t.Fatalf("rebuilt job drifted:\n want %+v\n got  %+v", orig, rebuilt)
	}
}

// TestErrorEnvelopeShape pins the envelope's exact JSON shape — clients
// and the docs both promise {"error":{"code","message"}}.
func TestErrorEnvelopeShape(t *testing.T) {
	js, err := json.Marshal(Errorf(CodeQueueFull, "queue depth %d at limit", 64))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":{"code":"queue_full","message":"queue depth 64 at limit"}}`
	if string(js) != want {
		t.Fatalf("envelope shape:\n want %s\n got  %s", want, js)
	}
}

// TestWriteHelpers exercises the HTTP writers: content type, status,
// envelope and the Retry-After header.
func TestWriteHelpers(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, 404, CodeJobNotFound, "no job %q", "x")
	if rec.Code != 404 || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("WriteError: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var env ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeJobNotFound || !strings.Contains(env.Error.Message, `"x"`) {
		t.Fatalf("WriteError envelope: %+v", env)
	}

	rec = httptest.NewRecorder()
	WriteRetryAfter(rec, 0, "full")
	if rec.Code != 429 || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("WriteRetryAfter: %d Retry-After=%q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeQueueFull {
		t.Fatalf("WriteRetryAfter code: %+v", env)
	}

	rec = httptest.NewRecorder()
	WriteJSON(rec, JobResponse{ID: "a", Status: "placed"})
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"status": "placed"`) {
		t.Fatalf("WriteJSON: %d %s", rec.Code, rec.Body.String())
	}
}

// TestClearVolatile zeroes exactly the restart-variant fields.
func TestClearVolatile(t *testing.T) {
	s := StateResponse{
		UptimeSec: 5, ClockSec: 6, FreeGPUs: 3,
		Stats: SchedStats{Decisions: 9, MeanDecisionUs: 1, MaxDecisionUs: 2, TotalDecisionMs: 3},
		Log:   &LogStats{Records: 4, Syncs: 2},
		Domains: []DomainState{
			{Domain: 0, GPUs: 8, Log: &LogStats{Records: 2}},
		},
	}
	s.ClearVolatile()
	if s.UptimeSec != 0 || s.ClockSec != 0 || s.Stats.MeanDecisionUs != 0 ||
		s.Stats.MaxDecisionUs != 0 || s.Stats.TotalDecisionMs != 0 {
		t.Fatalf("volatile fields survive: %+v", s)
	}
	// Log gauges are per-process (sync and snapshot counters restart at
	// zero), so restart byte-pinning must not see them.
	if s.Log != nil || s.Domains[0].Log != nil {
		t.Fatalf("log gauges survive: %+v", s)
	}
	if s.FreeGPUs != 3 || s.Stats.Decisions != 9 || s.Domains[0].GPUs != 8 {
		t.Fatalf("durable fields clobbered: %+v", s)
	}
}
