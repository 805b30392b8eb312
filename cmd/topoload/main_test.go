package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gputopo/internal/serveapi/client"
	"gputopo/internal/sweep"
)

// TestRunInProcess drives the whole harness end to end against the
// in-process server and checks the BENCH_serve.json artifact it writes:
// every generated job accounted for, zero errors, and the
// deterministic metrics the CI gate relies on populated.
func TestRunInProcess(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_serve.json")
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
		out:     out,
	}
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "placement latency") {
		t.Fatalf("summary missing: %q", buf.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	report, err := sweep.LoadBenchReport(data, out)
	if err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if len(report.Serving) != 1 {
		t.Fatalf("want 1 serving entry, got %d", len(report.Serving))
	}
	sb := report.Serving[0]
	if sb.Name != "serve/minsky:2/topo-p" {
		t.Fatalf("entry name %q", sb.Name)
	}
	if sb.Jobs != cfg.jobs {
		t.Fatalf("jobs %d, want %d", sb.Jobs, cfg.jobs)
	}
	if sb.Errors != 0 {
		t.Fatalf("%d errors driving an unlimited-queue server", sb.Errors)
	}
	if sb.Placed == 0 || sb.Placed > sb.Jobs {
		t.Fatalf("placed %d outside (0, %d]", sb.Placed, sb.Jobs)
	}
	// Batching and FIFO head-of-line blocking keep decisions below the
	// job count, but every placement cost at least one.
	if sb.Decisions < sb.Placed {
		t.Fatalf("decisions %d < placed %d", sb.Decisions, sb.Placed)
	}
	if sb.LatencyP50Ms <= 0 || sb.LatencyP99Ms < sb.LatencyP50Ms {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v", sb.LatencyP50Ms, sb.LatencyP99Ms)
	}
	if sb.ElapsedSec <= 0 || sb.JobsPerSec <= 0 || sb.DecisionsPerSec <= 0 {
		t.Fatalf("rates unset: %+v", sb)
	}

	// -append merges a second entry instead of clobbering the artifact.
	cfg.name = "serve/second"
	cfg.appendTo = true
	cfg.logPath = filepath.Join(dir, "events2.log")
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("append run: %v", err)
	}
	data, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	report, err = sweep.LoadBenchReport(data, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Serving) != 2 {
		t.Fatalf("append kept %d entries, want 2", len(report.Serving))
	}
}

// TestRunOpenLoop switches the harness to open-loop mode: jobs arrive
// on a fixed schedule at -submit-rate regardless of server latency, and
// the artifact records the traffic model and the offered rate.
func TestRunOpenLoop(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_serve.json")
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
		out:        out,
		quiet:      true,
	}
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	report, err := sweep.LoadBenchReport(data, out)
	if err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if len(report.Serving) != 1 {
		t.Fatalf("want 1 serving entry, got %d", len(report.Serving))
	}
	sb := report.Serving[0]
	if sb.Mode != "open-loop" || sb.TargetJobsPerSec != cfg.submitRate {
		t.Fatalf("traffic model not recorded: mode=%q target=%v", sb.Mode, sb.TargetJobsPerSec)
	}
	if sb.Jobs != cfg.jobs || sb.Errors != 0 {
		t.Fatalf("jobs=%d errors=%d, want %d jobs and no errors", sb.Jobs, sb.Errors, cfg.jobs)
	}
	// 20 jobs at 2000/s take >= 19 gaps of 0.5ms: open-loop elapsed time
	// is bounded below by the arrival schedule, not the server.
	if sb.ElapsedSec < 0.0095 {
		t.Fatalf("elapsed %.4fs shorter than the arrival schedule", sb.ElapsedSec)
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
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("run: %v", err)
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
