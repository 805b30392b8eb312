package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one catalogue entry: BENCHMARK.json lists exactly these
// names, units and directions, and TestBenchmarkJSONMatchesCatalogue
// pins the two against each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen
}

// endToEnd is the gated set. Every workload reports every one of them
// from its untraced run; README.md says what each means on the serving
// and on the simulator workloads. Time is counted in reference seconds
// (refclock.go): the driver runs this on two cores of a shared host and
// refused wall-clock throughput and latency, whose ten runs spread 27% to
// 300% there. The bounds are three times the spread ten runs on ten seeds
// showed on the sandbox on an ordinary day (README, "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_ref_s", "1/ref_s", "higher", 0.25},
	{"allocs_per_op", "1/op", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// extraBounds are the untraced metrics that are not gated through
// BENCHMARK.json: the ones only some workloads have (it wants every
// metric from every workload) and the ones that follow the wall clock.
// -out records them and -compare judges them with these bounds.
var extraBounds = map[string]metricDef{
	"setup_wall_s":       {"setup_wall_s", "s", "lower", 0.25},
	"ops_per_s":          {"ops_per_s", "1/s", "higher", 0.25},
	"cpu_us_per_op":      {"cpu_us_per_op", "us/op", "lower", 0.25},
	"op_latency_ms":      {"op_latency_ms", "ms", "lower", 0.25},
	"submit_p99_ms":      {"submit_p99_ms", "ms", "lower", 0.20},
	"release_p50_ms":     {"release_p50_ms", "ms", "lower", 0.10},
	"release_p99_ms":     {"release_p99_ms", "ms", "lower", 0.20},
	"state_read_p50_ms":  {"state_read_p50_ms", "ms", "lower", 0.15},
	"sim_makespan_s":     {"sim_makespan_s", "sim_s", "lower", 0},
	"sim_slo_violations": {"sim_slo_violations", "count", "lower", 0},
}

// perLayer is the traced-run set. A layer a workload never enters
// reports 0: that is the prediction "no change" made checkable.
var perLayer = []metricDef{
	{"http.self_us", "us/op", "lower", 0},
	{"serve.self_us", "us/op", "lower", 0},
	{"serve.decisions_get_us", "us/op", "lower", 0},
	{"serve.state_get_us", "us/op", "lower", 0},
	{"serve.recovery_s", "s/restart", "lower", 0},
	{"serve.recovery_us_per_record", "us/record", "lower", 0},
	{"serve.rejected_429", "count", "lower", 0},
	{"serve.placed_ratio", "ratio", "higher", 0},
	{"serveapi.decode_us", "us/op", "lower", 0},
	{"serveapi.encode_us", "us/op", "lower", 0},
	{"domains.route_ns", "ns/op", "lower", 0},
	{"domains.imbalance_ratio", "ratio", "lower", 0},
	{"eventlog.append_us", "us/record", "lower", 0},
	{"eventlog.sync_p50_us", "us/sync", "lower", 0},
	{"eventlog.sync_p99_us", "us/sync", "lower", 0},
	{"eventlog.syncs_per_op", "ratio", "lower", 0},
	{"eventlog.records_per_op", "ratio", "lower", 0},
	{"eventlog.bytes_per_op", "B/op", "lower", 0},
	{"eventlog.rewrite_ms", "ms/rewrite", "lower", 0},
	{"eventlog.rewrites", "count", "higher", 0},
	{"eventlog.replay_us_per_record", "us/record", "lower", 0},
	{"schedcore.submit_us", "us/op", "lower", 0},
	{"schedcore.schedule_p50_us", "us/round", "lower", 0},
	{"schedcore.schedule_p99_us", "us/round", "lower", 0},
	{"schedcore.release_us", "us/op", "lower", 0},
	{"schedcore.attempt_us", "us/attempt", "lower", 0},
	{"schedcore.decision_time_s", "s/run", "lower", 0},
	{"schedcore.decisions", "count", "lower", 0},
	{"schedcore.gate_skips", "count", "higher", 0},
	{"schedcore.wake_skips", "count", "higher", 0},
	{"schedcore.preemptions", "count", "higher", 0},
	{"schedcore.evictions", "count", "lower", 0},
	{"schedcore.placement_ratio", "ratio", "higher", 0},
	{"placecache.hit_ratio", "ratio", "higher", 0},
	{"placecache.evictions_per_miss", "ratio", "lower", 0},
	{"placecache.lookup_ns", "ns/lookup", "lower", 0},
	{"core.place_g2_us", "us/place", "lower", 0},
	{"core.place_g4_us", "us/place", "lower", 0},
	{"core.place_multihost_us", "us/place", "lower", 0},
	{"cluster.alloc_release_ns", "ns/pair", "lower", 0},
	{"cluster.fingerprint_ns", "ns/call", "lower", 0},
	{"cluster.copyfrom_us", "us/call", "lower", 0},
	{"simulator.run_s", "s/grid", "lower", 0},
	{"simulator.run_sharded_s", "s/grid", "lower", 0},
	{"simulator.self_s", "s/grid", "lower", 0},
	{"simulator.makespan_s", "sim_s", "lower", 0},
	{"simulator.slo_violations", "count", "lower", 0},
	{"sweep.aggregate_ms", "ms/grid", "lower", 0},
	{"sweep.report_json_ms", "ms/grid", "lower", 0},
	{"sweep.slowest_point_s", "s/point", "lower", 0},
	{"sweep.queue_grid_s", "s/grid", "lower", 0},
	{"sweep.preempt_grid_s", "s/grid", "lower", 0},
	{"topology.build_ms", "ms/build", "lower", 0},
	{"profile.generate_ms", "ms/build", "lower", 0},
	{"workload.generate_ms", "ms/grid", "lower", 0},
	{"runtime.gc_pause_ms", "ms/run", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"paced.submit_p50_ms", "ms/op", "lower", 0},
	{"paced.submit_p99_ms", "ms/op", "lower", 0},
	{"paced.goodput_ratio", "ratio", "higher", 0},
	{"paced.max_lateness_ms", "ms/run", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.unattributed_ratio", "ratio", "lower", 0},
}

// value is one measured number. N is the sample count behind it (0 for
// counts and ratios that are not statistics of a sample).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects named values against a catalogue, so a typo in a
// name or a forgotten metric fails the run instead of printing garbage.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{defs: map[string]metricDef{}, vals: map[string]value{}}
	for _, d := range defs {
		ms.defs[d.Name] = d
	}
	return ms
}

func (ms *metricSet) set(name string, v float64, n int) {
	d, ok := ms.defs[name]
	if !ok {
		panic("topoperf: metric " + name + " is not in the catalogue")
	}
	ms.vals[name] = value{Value: v, Unit: d.Unit, N: n}
}

// complete fills catalogue entries the workload never touched with 0
// (per-layer only) and returns the values.
func (ms *metricSet) complete(fillZero bool) (map[string]value, error) {
	for _, name := range sortedKeys(ms.defs) {
		if _, ok := ms.vals[name]; ok {
			continue
		}
		if !fillZero {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		ms.vals[name] = value{Unit: ms.defs[name].Unit}
	}
	return ms.vals, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// percentile returns the p-th percentile (nearest rank) of an ascending
// sample. Above the median it follows the "at least ten samples beyond"
// rule: a tail percentile is only as good as the handful of samples past
// it, so it refuses one it cannot support instead of printing the
// maximum under a grander name.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of an empty sample")
	}
	if p < 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside [0,100)", p)
	}
	rank := int(math.Ceil(float64(n)*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if p > 50 && n-1-rank < 10 {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need 10)", p, n, n-1-rank)
	}
	return sorted[rank], nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 50)
	return v
}

// peakRSSMB reads the process's high-water resident set (VmHWM). One
// workload per process keeps the peaks from mixing.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
