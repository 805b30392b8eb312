package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/serveapi"
	"gputopo/internal/simulator"
)

func jobNamed(id string, gpus int) *job.Job {
	return job.New(id, perfmodel.AlexNet, 1, gpus, 0, 0)
}

func opStrings(cfg genConfig, seed uint64, n int) []string {
	ops, _ := prefix(cfg, seed, n)
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = op.String()
	}
	return out
}

func TestGeneratorIsAFunctionOfItsSeed(t *testing.T) {
	for _, name := range []string{"serve-durable", "serve-preempt"} {
		cfg := serveSpecFor(name, false).gen
		a, b := opStrings(cfg, 42, 4000), opStrings(cfg, 42, 4000)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: seed 42 gave two different op sequences", name)
		}
		if c := opStrings(cfg, 7, 4000); strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: seeds 42 and 7 gave the same op sequence", name)
		}
	}
	d, p := serveSpecFor("serve-durable", false).gen, serveSpecFor("serve-preempt", false).gen
	p.Rate, p.MeanHold, p.Share8, p.PriorityShare = d.Rate, d.MeanHold, d.Share8, d.PriorityShare
	if strings.Join(opStrings(d, 42, 500), "\n") == strings.Join(opStrings(p, 42, 500), "\n") {
		t.Error("two workloads share one random stream under the same seed")
	}
}

func TestEveryJobIsPostedOnceThenDeletedOnce(t *testing.T) {
	ops, cut := prefix(serveSpecFor("serve-preempt", false).gen, 42, 6000)
	if cut <= 0 || cut >= len(ops) {
		t.Fatalf("cut %d of %d ops: no closing tail", cut, len(ops))
	}
	posted, deleted := map[string]bool{}, map[string]bool{}
	last, writes, gets := -1.0, 0, 0
	for i, op := range ops {
		switch op.Kind {
		case opSubmit:
			if i >= cut {
				t.Fatalf("op %d: POST inside the closing tail", i)
			}
			if posted[op.Job.req.ID] {
				t.Fatalf("job %s posted twice", op.Job.req.ID)
			}
			posted[op.Job.req.ID] = true
		case opRelease:
			id := op.Job.req.ID
			if !posted[id] || deleted[id] {
				t.Fatalf("op %d: DELETE of %s (posted %v, already deleted %v)", i, id, posted[id], deleted[id])
			}
			deleted[id] = true
		default:
			gets++
			continue
		}
		writes++
		if op.At < last {
			t.Fatalf("op %d due at %.6f after one due at %.6f", i, op.At, last)
		}
		last = op.At
	}
	if len(posted) != len(deleted) {
		t.Errorf("%d jobs posted, %d deleted", len(posted), len(deleted))
	}
	if want := writes/decisionsEvery + writes/stateEvery; gets != want {
		t.Errorf("%d GETs among %d writes, want %d", gets, writes, want)
	}
}

// TestGeneratorHoldsTargetOccupancy replays each serving sequence against
// a stub that places every job at once and counts busy GPUs over virtual
// time: the occupancy is then a property of the sequence alone.
func TestGeneratorHoldsTargetOccupancy(t *testing.T) {
	for _, c := range []struct {
		name   string
		gpus   int
		target float64
	}{{"serve-durable", 512, 0.70}, {"serve-preempt", 288, 0.90}} {
		ops, cut := prefix(serveSpecFor(c.name, false).gen, 42, 60000)
		busy, area, prev := 0, 0.0, 0.0
		warm := ops[cut/10].At // skip the ramp from an empty cluster
		for _, op := range ops[:cut] {
			if op.At > warm {
				area += float64(busy) * (op.At - max(prev, warm))
			}
			prev = op.At
			switch op.Kind {
			case opSubmit:
				busy += op.Job.req.GPUs
			case opRelease:
				busy -= op.Job.req.GPUs
			}
		}
		got := area / (prev - warm) / float64(c.gpus)
		if got < c.target*0.9 || got > c.target*1.1 {
			t.Errorf("%s: occupancy %.3f, want %.2f within 10%%", c.name, got, c.target)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was not refused")
	}
	if v, err := percentile(xs, 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, err)
	}
	if v, err := percentile(xs[:200], 90); err != nil || v != 180 {
		t.Errorf("p90 of 1..200 = %v, %v; want 180", v, err)
	}
	if _, err := percentile(xs[:20], 90); err == nil {
		t.Error("p90 of 20 samples has 2 beyond it and was not refused")
	}
	if v, err := percentile([]float64{3}, 50); err != nil || v != 3 {
		t.Errorf("median of one sample = %v, %v", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of nothing was not refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

// TestReferenceKernelIsFixedWork pins what ops_per_ref_s leans on: the
// kernel does the same work whoever builds it, a reading is a positive
// time, and reference seconds follow the median reading.
func TestReferenceKernelIsFixedWork(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	for i := 0; i < 3; i++ {
		a.unit()
		b.unit()
	}
	if a.sink != b.sink || a.sink == 0 {
		t.Errorf("two kernels computed %d and %d over the same three units", a.sink, b.sink)
	}
	if r := a.read(4); r <= 0 {
		t.Errorf("a reading of four units: %v CPU seconds per reference second", r)
	}
	if allocs := testing.AllocsPerRun(3, func() { a.read(4) }); allocs != 0 {
		t.Errorf("a reading allocates %v objects; it runs inside the window that counts allocs_per_op", allocs)
	}
	near := []float64{1.2, 1.0, 5.0} // one reading hit by the collector
	if got := refSeconds(1200*time.Millisecond, near); got != 1 {
		t.Errorf("1.2 CPU seconds on a host 1.2x slow = %v reference seconds, want 1", got)
	}
}

// TestWindowMediansShrugOffOneBadWindow: a stalled window and a reading
// taken while something else ran must not move the run's figures.
func TestWindowMediansShrugOffOneBadWindow(t *testing.T) {
	ph := &phase{}
	for i := 0; i < 9; i++ {
		w := window{wall: 400 * time.Millisecond, cpu: 500 * time.Millisecond, ops: 1000, posts: []float64{0.1, 0.2, 0.3}}
		if i == 4 {
			w = window{wall: 900 * time.Millisecond, cpu: 800 * time.Millisecond, ops: 300, posts: []float64{5, 6, 7}}
		}
		ph.windows = append(ph.windows, w)
		ph.readings = append(ph.readings, 1.25)
	}
	ph.readings = append(ph.readings, 1.25)
	ph.readings[5] = 2.5
	perRefS, perWallS, cpuUs, postMs := ph.windowMedians()
	if perRefS != 2500 || perWallS != 2500 || cpuUs != 500 || postMs != 0.2 {
		t.Errorf("medians = %v ops/ref_s, %v ops/s, %v us/op, %v ms; want 2500, 2500, 500, 0.2", perRefS, perWallS, cpuUs, postMs)
	}
}

func TestCheckersRejectBadFixtures(t *testing.T) {
	good := &serveapi.StateResponse{GPUs: 8, FreeGPUs: 4, Running: []serveapi.RunningEntry{{ID: "a", GPUs: []int{0, 1}}, {ID: "b", GPUs: []int{2, 3}}}}
	if err := checkState(good); err != nil {
		t.Errorf("consistent state rejected: %v", err)
	}
	doubleBooked := &serveapi.StateResponse{GPUs: 8, FreeGPUs: 4, Running: []serveapi.RunningEntry{{ID: "a", GPUs: []int{0, 1}}, {ID: "b", GPUs: []int{1, 2}}}}
	if err := checkState(doubleBooked); err == nil {
		t.Error("GPU 1 runs two jobs and the state checker passed it")
	}
	leaked := &serveapi.StateResponse{GPUs: 8, FreeGPUs: 5, Running: good.Running}
	if err := checkState(leaked); err == nil {
		t.Error("4 busy + 5 free of 8 GPUs and the state checker passed it")
	}
	if err := checkDrained(good); err == nil {
		t.Error("a state with running jobs passed as drained")
	}

	req := serveapi.JobRequest{ID: "j", GPUs: 2}
	for _, bad := range []serveapi.JobResponse{
		{Status: "placed", GPUs: []int{0}},
		{Status: "placed", GPUs: []int{3, 3}},
		{Status: "placed", GPUs: []int{7, 8}},
		{Status: "lost"},
	} {
		if err := checkSubmit(req, &bad, 8); err == nil {
			t.Errorf("POST answer %+v passed the checker", bad)
		}
	}

	j0, j1 := jobNamed("J0", 1), jobNamed("J1", 1)
	ok := &simulator.Result{
		Jobs:     []simulator.JobResult{{Job: j0, GPUs: []int{0}}, {Job: j1, GPUs: []int{0}}},
		Timeline: []simulator.Interval{{JobID: "J0", GPUs: []int{0}, Start: 0, Finish: 5}, {JobID: "J1", GPUs: []int{0}, Start: 5, Finish: 9}},
	}
	if err := checkSimResult(ok, 2); err != nil {
		t.Errorf("back-to-back intervals rejected: %v", err)
	}
	overlap := *ok
	overlap.Timeline = []simulator.Interval{ok.Timeline[0], {JobID: "J1", GPUs: []int{0}, Start: 4, Finish: 9}}
	if err := checkSimResult(&overlap, 2); err == nil {
		t.Error("two jobs on GPU 0 from t=4 to t=5 and the timeline checker passed it")
	}
	if err := checkSimResult(ok, 3); err == nil {
		t.Error("2 of 3 jobs finished and the checker passed it")
	}
	short := *ok
	short.Jobs = []simulator.JobResult{{Job: jobNamed("J0", 2), GPUs: []int{0}}, ok.Jobs[1]}
	if err := checkSimResult(&short, 2); err == nil {
		t.Error("a 2-GPU job ran on one GPU and the checker passed it")
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, b.Workloads[i].Name, w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/topoperf" {
		t.Errorf("paths = %v", b.Paths)
	}
}

// TestSmokeRunsEveryWorkloadBothWays drives all four workloads through
// the untraced and the traced run at smoke size: every path, every
// correctness check, every metric of the catalogue, the driver's result
// line and the -out document.
func TestSmokeRunsEveryWorkloadBothWays(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "perf.json")
	run := newRunDoc(42, 0.5, true)
	for _, wl := range workloads {
		run.Workloads[wl.Name] = &workloadDoc{}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: wl.Name, seed: 42, seconds: 0.5, traced: traced, smoke: true,
				dir: dir, traceOut: filepath.Join(dir, "topoperf-trace.json")}
			var buf bytes.Buffer
			section, err := runOne(context.Background(), cfg, &buf)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", wl.Name, traced, err, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line driverLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", wl.Name, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 || len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line %+v with %d metrics, want %d", wl.Name, traced, line, len(line.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := line.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in %q", wl.Name, traced, d.Name, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl.Name, d.Name, v.Value)
				}
			}
			run.Workloads[wl.Name].merge(section)
		}
	}
	layer := func(wl, name string) float64 { return run.Workloads[wl].PerLayer[name].Value }
	for _, c := range []struct{ wl, metric string }{
		{"serve-durable", "eventlog.sync_p50_us"}, {"serve-durable", "serve.recovery_s"},
		{"serve-durable", "http.self_us"}, {"serve-preempt", "schedcore.preemptions"},
		{"serve-preempt", "domains.route_ns"}, {"sim-scenario2", "simulator.run_sharded_s"},
		{"sim-contended", "schedcore.wake_skips"}, {"sim-contended", "schedcore.preemptions"},
		{"sim-contended", "sweep.preempt_grid_s"}, {"sim-scenario2", "core.place_g4_us"},
	} {
		if layer(c.wl, c.metric) <= 0 {
			t.Errorf("%s: %s = %v, want > 0", c.wl, c.metric, layer(c.wl, c.metric))
		}
	}
	// The prediction "no change" needs the bypassing workload to read 0.
	if v := layer("serve-preempt", "eventlog.append_us"); v != 0 {
		t.Errorf("serve-preempt has no event log but eventlog.append_us = %v", v)
	}

	trace, err := os.ReadFile(filepath.Join(dir, "topoperf-trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf struct{ Spans []span }
	if err := json.Unmarshal(trace, &tf); err != nil {
		t.Fatal(err)
	}
	linked := 0
	for _, s := range tf.Spans {
		if s.Parent >= 0 {
			if p := tf.Spans[s.Parent]; p.Op != s.Op || p.Start > s.Start || p.End < s.End {
				t.Fatalf("span %d (%s) is not inside its parent %d (%s) of the same op", s.ID, s.Name, p.ID, p.Name)
			}
			linked++
		}
	}
	if linked == 0 {
		t.Error("the trace has no parent-linked span")
	}

	if err := appendRun(out, run); err != nil {
		t.Fatal(err)
	}
	if err := appendRun(out, run); err != nil {
		t.Fatal(err)
	}
	doc, err := loadDoc(out)
	if err != nil || len(doc.Runs) != 2 {
		t.Fatalf("-out document: %v, %d runs", err, len(doc.Runs))
	}
	var table bytes.Buffer
	if err := compareDocs(out, out, &table); err != nil {
		t.Errorf("a document compared with itself: %v\n%s", err, table.String())
	}
	if rows := strings.Count(table.String(), "\n"); rows < 1+len(workloads)*len(endToEnd) {
		t.Errorf("compare printed %d lines:\n%s", rows, table.String())
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{"m", "ms", "lower", 0.10}
	steady := func(c float64) side { return newSide([]float64{c * 0.99, c, c, c, c * 1.01}) }
	for _, c := range []struct {
		name         string
		base, change side
		def          metricDef
		want         string
	}{
		{"same", steady(100), steady(100), lower, "within"},
		{"5% slower", steady(100), steady(105), lower, "within"},
		{"15% slower", steady(100), steady(115), lower, "worse"},
		{"noisy base", newSide([]float64{60, 80, 100, 120, 140}), steady(115), lower, "unresolved"},
		{"noisy but every run faster", newSide([]float64{60, 80, 100, 120, 140}), steady(50), lower, "within"},
		{"throughput fell", steady(100), steady(80), metricDef{"t", "1/s", "higher", 0.10}, "worse"},
		{"throughput rose", steady(100), steady(130), metricDef{"t", "1/s", "higher", 0.10}, "within"},
		{"deterministic moved", newSide([]float64{7, 7}), newSide([]float64{8, 8}), metricDef{"d", "count", "lower", 0}, "worse"},
		{"deterministic from zero", newSide([]float64{0}), newSide([]float64{1}), metricDef{"d", "count", "lower", 0}, "worse"},
		{"deterministic same", newSide([]float64{7, 7}), newSide([]float64{7, 7}), metricDef{"d", "count", "lower", 0}, "within"},
	} {
		if got := verdict(c.base, c.change, c.def); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSortedOutput(t *testing.T) {
	ms := newMetricSet(perLayer)
	vals, err := ms.complete(true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printMetrics(&buf, "x", vals)
	var names []string
	for _, line := range strings.Split(buf.String(), "\n")[1:] {
		if f := strings.Fields(line); len(f) > 0 {
			names = append(names, f[0])
		}
	}
	if len(names) != len(perLayer) || !sort.StringsAreSorted(names) {
		t.Errorf("%d of %d metrics printed, sorted=%v", len(names), len(perLayer), sort.StringsAreSorted(names))
	}
}
