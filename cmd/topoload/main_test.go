package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gputopo/internal/serveapi/client"
	"gputopo/internal/sweep"
)

// TestRunInProcess drives the whole harness end to end against the
// in-process server: every generated job accounted for, zero errors, a
// consistent result, every job released — those placed later from the
// queue too, so the final state holds none of the stream — and a summary
// with a clean exit.
func TestRunInProcess(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		topoArg: "minsky:2",
		policy:  "topo-p",
		jobs:    25,
		seed:    42,
		rate:    10,
		workers: 4,
		hold:    time.Millisecond,
		retries: 8,
		logPath: filepath.Join(dir, "events.log"),
	}
	spec, err := sweep.ParseTopologyArg(cfg.topoArg)
	if err != nil {
		t.Fatal(err)
	}
	base, stop, err := startInProcess(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cfg.url = base
	res, err := load(cfg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	st, err := client.New(base).State(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Running) != 0 || len(st.Queue) != 0 {
		t.Fatalf("after the run: %d jobs running, %d queued", len(st.Running), len(st.Queue))
	}
	if res.released != res.jobs {
		t.Fatalf("released %d of %d jobs", res.released, res.jobs)
	}
	if res.mode != "closed-loop" {
		t.Fatalf("mode %q", res.mode)
	}
	if res.jobs != cfg.jobs {
		t.Fatalf("jobs %d, want %d", res.jobs, cfg.jobs)
	}
	if res.errors != 0 {
		t.Fatalf("%d errors driving an unlimited-queue server", res.errors)
	}
	if res.placed == 0 || res.placed > res.jobs {
		t.Fatalf("placed %d outside (0, %d]", res.placed, res.jobs)
	}
	// Batching and FIFO head-of-line blocking keep decisions below the
	// job count, but every placement cost at least one.
	if res.decisions < res.placed {
		t.Fatalf("decisions %d < placed %d", res.decisions, res.placed)
	}
	if res.p50 <= 0 || res.p99 < res.p50 {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v", res.p50, res.p99)
	}
	if res.submitted <= 0 || res.run < res.submitted {
		t.Fatalf("run %v, submit phase %v: want a submit phase the run holds", res.run, res.submitted)
	}

	cfg.url, cfg.logPath = "", filepath.Join(dir, "events2.log")
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"serve/minsky:2/topo-p (closed-loop): 25 jobs", " 25 released", " 0 errors", "placement latency"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("summary lacks %q: %q", want, buf.String())
		}
	}
}

// TestRunOpenLoop switches the harness to open-loop mode: jobs arrive
// on a fixed schedule at -submit-rate regardless of server latency.
func TestRunOpenLoop(t *testing.T) {
	cfg := config{
		topoArg:    "minsky:2",
		policy:     "topo-p",
		jobs:       20,
		seed:       42,
		rate:       10,
		submitRate: 2000,
		arrivals:   "fixed",
		hold:       time.Millisecond,
		retries:    8,
	}
	res, err := load(cfg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if res.mode != "open-loop" {
		t.Fatalf("traffic model not recorded: mode=%q", res.mode)
	}
	if res.jobs != cfg.jobs || res.errors != 0 || res.placed == 0 {
		t.Fatalf("jobs=%d errors=%d placed=%d, want %d jobs, no errors, some placed", res.jobs, res.errors, res.placed, cfg.jobs)
	}
	// 20 jobs at 2000/s take >= 19 gaps of 0.5ms: the open-loop submit
	// phase is bounded below by the arrival schedule, not the server.
	if res.submitted < 9500*time.Microsecond {
		t.Fatalf("submit phase %v shorter than the arrival schedule", res.submitted)
	}
}

// TestRunFailsOnRequestErrors: a server that is healthy but answers
// every submit with a 500 makes run print the summary and then return
// the error topoload exits 1 on.
func TestRunFailsOnRequestErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok") })
	mux.HandleFunc("/v1/state", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "{}") })
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := config{
		url: ts.URL, topoArg: "minsky:2", policy: "topo-p",
		jobs: 6, seed: 42, rate: 10, workers: 2, hold: time.Millisecond,
	}
	var buf bytes.Buffer
	err := run(cfg, &buf)
	if err == nil || err.Error() != "6 of 6 requests failed" {
		t.Fatalf("run against a failing server returned %v", err)
	}
	if !strings.Contains(buf.String(), " 6 errors") {
		t.Fatalf("summary not printed before the error: %q", buf.String())
	}
}

// TestArrivalOffsets pins the two arrival processes: fixed spacing is
// exact, and poisson is deterministic in the seed with monotone offsets.
func TestArrivalOffsets(t *testing.T) {
	cfg := config{submitRate: 100, arrivals: "fixed"}
	fixed, err := arrivalOffsets(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	for i := range want {
		if fixed[i] != want[i] {
			t.Fatalf("fixed[%d] = %v, want %v", i, fixed[i], want[i])
		}
	}

	cfg.arrivals = "poisson"
	cfg.seed = 7
	a, err := arrivalOffsets(50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := arrivalOffsets(50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("poisson schedule not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("poisson offsets not monotone at %d", i)
		}
	}

	cfg.arrivals = "uniform"
	if _, err := arrivalOffsets(1, cfg); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
}

func TestPercentileMs(t *testing.T) {
	ds := []time.Duration{4 * time.Millisecond, time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	if got := percentileMs(ds, 50); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := percentileMs(ds, 99); got != 4 {
		t.Fatalf("p99 = %v, want 4", got)
	}
	if got := percentileMs(nil, 50); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
}

// TestRunInProcessHonoursDomains: an in-process -topology with a
// /domains[...] suffix must serve that many scheduling domains — the
// state carries one entry per domain and each journals to its own log —
// not the split's key over one unsharded core.
func TestRunInProcessHonoursDomains(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		topoArg: "minsky:4/domains[hash:2]",
		policy:  "topo-p",
		jobs:    20,
		seed:    42,
		rate:    10,
		workers: 4,
		hold:    time.Millisecond,
		retries: 8,
		logPath: filepath.Join(dir, "events.log"),
		quiet:   true,
	}
	spec, err := sweep.ParseTopologyArg(cfg.topoArg)
	if err != nil {
		t.Fatal(err)
	}
	base, stop, err := startInProcess(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.New(base).State(context.Background())
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if st.Topology != cfg.topoArg || st.GPUs != 16 || len(st.Domains) != 2 {
		t.Fatalf("in-process state: topology %q, %d GPUs, domains %+v", st.Topology, st.GPUs, st.Domains)
	}
	for _, ds := range st.Domains {
		if ds.Topology != "minsky:2" || ds.GPUs != 8 {
			t.Fatalf("domain %d: %+v", ds.Domain, ds)
		}
	}

	// The full run drives both domains and leaves one log each.
	res, err := load(cfg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if res.jobs != cfg.jobs || res.errors != 0 || res.placed == 0 {
		t.Fatalf("jobs=%d errors=%d placed=%d, want %d jobs, no errors, some placed", res.jobs, res.errors, res.placed, cfg.jobs)
	}
	for _, name := range []string{"events.log.d0", "events.log.d1"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("per-domain log missing: %v", err)
		}
	}
	if _, err := os.Stat(cfg.logPath); err == nil {
		t.Fatal("a split run wrote the unsplit log name")
	}
}
