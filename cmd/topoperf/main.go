// Command topoperf is the repository's benchmark: one program that
// measures the serving stack and the simulator on four seeded workloads,
// end to end from an untraced run and layer by layer from a separate
// traced run, and checks on every run that what the system answered is
// correct. BENCHMARK.json at the repository root describes it to the
// driver; README.md beside this file is the catalogue of workloads and
// metrics and says which layer should move which number where.
//
//	go run ./cmd/topoperf                        # all workloads, untraced then traced
//	go run ./cmd/topoperf -workload serve-durable -trace 0
//	go run ./cmd/topoperf -out perf.json         # append this run to perf.json
//	go run ./cmd/topoperf -compare a.json b.json
//
// The system is driven only through public functions and the /v1 HTTP
// API; spans are recorded by this program around those calls.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

var workloads = []struct{ Name, Why string }{
	{"serve-durable", "durable single-core serving on minsky:128 at ~70% occupancy: event-log append and fsync, serve and net/http do most of the work, mapper and place cache little"},
	{"serve-preempt", "in-memory sharded serving on a mixed 60-machine cluster at ~90% occupancy with priorities and preemption: no event log at all, so a durable-path gain bought at this path's cost shows here"},
	{"sim-scenario2", "the paper's cluster scale, 5k jobs on 1k machines kept just under capacity, unsharded and hash:4: candidate sweep, place cache, mapper and cluster fingerprints do the work; queues stay short"},
	{"sim-contended", "a 15k-deep queue on 60 mixed machines under four policies and two disciplines, plus a preempting grid: queue order, epoch gate, wake-up index and victim search carry it; the mapper sweep is cheap"},
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func isServing(name string) bool { return name == "serve-durable" || name == "serve-preempt" }

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool
	dir      string // scratch directory for event logs, removed by the caller
	traceOut string // where the traced run writes its spans
}

// measure is how long a timed phase admits new work.
func (c runConfig) measure() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// setupRepeats is how many times set-up is measured at most; its median
// is reported. simSetupBudget stops the simulator's repeats early, after
// the third, once they have taken this long: a 30 ms build can afford
// nine repeats, a 300 ms one seven.
func (c runConfig) setupRepeats() int {
	switch {
	case c.smoke:
		return 2
	case isServing(c.workload):
		return 25 // a start is ten milliseconds, and the collector's share of it varies
	}
	return 9
}

const simSetupBudget = 2 * time.Second

// tailPercentile is the tail the latency metrics report. A smoke run is
// too short to support a p99 (the percentile helper would refuse it),
// and measures nothing anyway.
func (c runConfig) tailPercentile() float64 {
	if c.smoke {
		return 90
	}
	return 99
}

// result is what one workload run produced.
type result struct {
	e2e       *metricSet
	layers    *metricSet
	extra     map[string]value
	digest    string
	notes     []string
	attempted int
	failed    int
	failures  []string
}

func newResult() *result {
	return &result{e2e: newMetricSet(endToEnd), layers: newMetricSet(perLayer), extra: map[string]value{}}
}

func (r *result) setExtra(name string, v float64, n int) {
	d, ok := extraBounds[name]
	if !ok {
		panic("topoperf: extra metric " + name + " is not in the catalogue")
	}
	r.extra[name] = value{Value: v, Unit: d.Unit, N: n}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload in this process, untraced or traced.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult()
	var err error
	switch {
	case isServing(cfg.workload) && cfg.traced:
		err = runServeTraced(ctx, cfg, res)
	case isServing(cfg.workload):
		err = runServeUntraced(ctx, cfg, res)
	case cfg.traced:
		err = runSimTraced(cfg, res)
	default:
		err = runSimUntraced(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

const docSchema = "gputopo-perf/1"

// workloadDoc is one workload's section of the -out document.
type workloadDoc struct {
	EndToEnd     map[string]value `json:"end_to_end,omitempty"`
	Extra        map[string]value `json:"extra,omitempty"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
	OpsAttempted int              `json:"ops_attempted"`
	OpsFailed    int              `json:"ops_failed"`
	SimDigest    string           `json:"sim_digest,omitempty"`
}

// runDoc is one invocation of the benchmark.
type runDoc struct {
	Seed      uint64                  `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Smoke     bool                    `json:"smoke,omitempty"`
	NProc     int                     `json:"nproc"`
	GoVersion string                  `json:"go_version"`
	GitCommit string                  `json:"git_commit"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

// perfDoc is the -out file: every run appended to it, so ten alternating
// runs of two commits make the two files -compare wants.
type perfDoc struct {
	Schema string   `json:"schema"`
	Runs   []runDoc `json:"runs"`
}

func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newRunDoc(seed uint64, seconds float64, smoke bool) runDoc {
	return runDoc{
		Seed: seed, Seconds: seconds, Smoke: smoke, NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), GitCommit: gitCommit(), Workloads: map[string]*workloadDoc{},
	}
}

// merge folds another section of the same workload (its traced or its
// untraced half) into d.
func (d *workloadDoc) merge(o *workloadDoc) {
	if o.EndToEnd != nil {
		d.EndToEnd, d.Extra, d.SimDigest = o.EndToEnd, o.Extra, o.SimDigest
	}
	if o.PerLayer != nil {
		d.PerLayer = o.PerLayer
	}
	d.OpsAttempted += o.OpsAttempted
	d.OpsFailed += o.OpsFailed
}

func loadDoc(path string) (*perfDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc perfDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != docSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, docSchema)
	}
	return &doc, nil
}

// appendRun adds the run to the document at path, creating it if absent.
func appendRun(path string, run runDoc) error {
	doc := &perfDoc{Schema: docSchema}
	if _, err := os.Stat(path); err == nil {
		if doc, err = loadDoc(path); err != nil {
			return err
		}
	}
	doc.Runs = append(doc.Runs, run)
	data, err := json.MarshalIndent(doc, "", "  ") // encoding/json sorts map keys
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics prints every value by name with its unit, in name order.
func printMetrics(w io.Writer, title string, vals map[string]value) {
	if len(vals) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s\n", title)
	for _, name := range sortedKeys(vals) {
		v := vals[name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Fprintf(w, "    %-32s %s %s%s\n", name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit, n)
	}
}

// driverLine is the benchmark contract's result object, printed as the
// last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload half in this process, prints it, and ends
// with the driver's result line. A correctness failure returns both the
// section and an error.
func runOne(ctx context.Context, cfg runConfig, w io.Writer) (*workloadDoc, error) {
	mode := "untraced"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "topoperf: %s, %s run, seed %d, %gs\n", cfg.workload, mode, cfg.seed, cfg.seconds)
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return nil, err
	}
	section := &workloadDoc{OpsAttempted: res.attempted, OpsFailed: res.failed, SimDigest: res.digest}
	var gated map[string]value
	if cfg.traced {
		if section.PerLayer, err = res.layers.complete(true); err != nil {
			return nil, err
		}
		gated = section.PerLayer
		printMetrics(w, "per-layer (traced run)", section.PerLayer)
	} else {
		if section.EndToEnd, err = res.e2e.complete(false); err != nil {
			return nil, err
		}
		section.Extra = res.extra
		gated = section.EndToEnd
		printMetrics(w, "end-to-end (untraced run)", section.EndToEnd)
		printMetrics(w, "end-to-end, this workload only", section.Extra)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if res.digest != "" {
		fmt.Fprintf(w, "  sim_digest %s\n", res.digest)
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	line := driverLine{Correct: res.failed == 0, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]driverValue{}}
	for name, v := range gated {
		line.Metrics[name] = driverValue{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", data)
	if res.failed > 0 {
		return section, fmt.Errorf("%s: %d correctness failure(s)", cfg.workload, res.failed)
	}
	return section, nil
}

// runAll runs every workload's two halves, each in its own child
// process so peak memory and warm caches do not leak between them, and
// appends the merged run to out.
func runAll(base runConfig, halves []bool, out string, w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	run := newRunDoc(base.seed, base.seconds, base.smoke)
	for _, wl := range workloads {
		run.Workloads[wl.Name] = &workloadDoc{}
		for _, traced := range halves {
			part := filepath.Join(base.dir, fmt.Sprintf("%s-%t.json", wl.Name, traced))
			args := []string{
				"-workload", wl.Name, "-seed", strconv.FormatUint(base.seed, 10),
				"-seconds", strconv.FormatFloat(base.seconds, 'g', -1, 64),
				"-trace", map[bool]string{false: "0", true: "1"}[traced],
				"-out", part, "-trace-out", base.traceOut,
			}
			if base.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = w, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (traced=%t): %w", wl.Name, traced, err)
			}
			doc, err := loadDoc(part)
			if err != nil {
				return err
			}
			run.Workloads[wl.Name].merge(doc.Runs[0].Workloads[wl.Name])
		}
	}
	if out != "" {
		return appendRun(out, run)
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: all, or one of the four names in BENCHMARK.json")
		seed     = flag.Uint64("seed", 42, "workload seed; every input is generated from it")
		seconds  = flag.Float64("seconds", 25, "how long each timed phase admits new work")
		trace    = flag.Int("trace", -1, "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); -1: both, untraced first")
		out      = flag.String("out", "", "append this run to a "+docSchema+" JSON document")
		traceOut = flag.String("trace-out", "", "where the traced run writes its spans (default: topoperf-trace.json beside -out, else under .bench_build/)")
		smoke    = flag.Bool("smoke", false, "tiny sizes: exercises every path and check in seconds, measures nothing")
		compare  = flag.Bool("compare", false, "compare two -out documents given as arguments, one row per workload and end-to-end metric")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace, *out, *traceOut, *smoke, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "topoperf:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds float64, trace int, out, traceOut string, smoke, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two documents: base.json change.json")
		}
		return compareDocs(args[0], args[1], os.Stdout)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if seconds <= 0 || trace < -1 || trace > 1 {
		return fmt.Errorf("-seconds must be positive and -trace one of -1, 0, 1")
	}
	if workload != "all" && !isWorkload(workload) {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if smoke && seconds > 0.5 {
		seconds = 0.5
	}

	// Everything the benchmark writes stays under the working directory:
	// event logs in a scratch directory removed on exit, spans beside
	// -out or under .bench_build/.
	scratchRoot := filepath.Join(".bench_build", "topoperf")
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if traceOut == "" {
		traceOut = filepath.Join(scratchRoot, "topoperf-trace.json")
		if out != "" {
			traceOut = filepath.Join(filepath.Dir(out), "topoperf-trace.json")
		}
	}
	cfg := runConfig{workload: workload, seed: seed, seconds: seconds, smoke: smoke, dir: dir, traceOut: traceOut}
	halves := []bool{false, true}
	if trace >= 0 {
		halves = []bool{trace == 1}
	}
	if workload == "all" {
		return runAll(cfg, halves, out, os.Stdout)
	}
	ctx := context.Background()
	run := newRunDoc(seed, seconds, smoke)
	run.Workloads[workload] = &workloadDoc{}
	var failed error
	for _, traced := range halves {
		cfg.traced = traced
		section, err := runOne(ctx, cfg, os.Stdout)
		if section == nil {
			return err
		}
		if err != nil {
			failed = err
		}
		run.Workloads[workload].merge(section)
	}
	if out != "" {
		if err := appendRun(out, run); err != nil {
			return err
		}
	}
	return failed
}
