package sweep

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"gputopo/internal/perfmodel"
	"gputopo/internal/serveapi"
	"gputopo/internal/workload"
)

// table1List is Table 1 as a job_list, each job in its /v1 wire form.
func table1List() []ListJob {
	var list []ListJob
	for _, j := range workload.Table1() {
		list = append(list, ListJob{JobSpec: serveapi.SpecOf(j)})
	}
	return list
}

// TestListSourceMatchesTable1: Table 1 written out as a job_list runs
// exactly like the table1 source, point for point, in both engines. The
// list grid goes through its spec file form first, so the JSON decoding
// of every entry is part of what must match.
func TestListSourceMatchesTable1(t *testing.T) {
	for _, engine := range []Engine{EngineSim, EngineProto} {
		t.Run(engine.String(), func(t *testing.T) {
			base := Grid{
				Name: "equiv", Engine: engine, Source: SourceTable1,
				Topologies: []TopologySpec{{Builder: "minsky"}},
				AlphasCC:   []float64{NoOverride, 0.5},
				Thresholds: []float64{NoOverride, 0.7},
				BaseSeed:   9, JitterStddev: 0.05,
			}
			if engine == EngineSim {
				base.SampleInterval = 10
			}
			list := base
			list.Source, list.JobList = SourceList, table1List()
			js, err := list.SpecJSON()
			if err != nil {
				t.Fatal(err)
			}
			if list, err = ParseGridSpec(js); err != nil {
				t.Fatal(err)
			}
			want, err := Run(base, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(list, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Points) != len(want.Points) || len(want.Points) != 4*2*2 {
				t.Fatalf("points = %d, table1 has %d", len(got.Points), len(want.Points))
			}
			for i, w := range want.Points {
				g := got.Points[i]
				for _, p := range []PointResult{w, g} {
					// The wall-clock decision timers are the one
					// non-deterministic part of a result.
					p.Sim.SchedStats.DecisionTime, p.Sim.SchedStats.MaxDecision = 0, 0
				}
				if g.Source != SourceList || g.Makespan == 0 {
					t.Fatalf("point %d: source %v, makespan %g", i, g.Source, g.Makespan)
				}
				if !reflect.DeepEqual(g.Sim, w.Sim) {
					t.Fatalf("point %d (%s): list result differs from table1 (makespan %g, want %g)", i, w.cellKey(), g.Makespan, w.Makespan)
				}
				if engine == EngineSim && len(g.Sim.Samples) == 0 {
					t.Fatalf("point %d: no samples recorded", i)
				}
				if engine == EngineProto {
					if len(g.Proto.Bandwidth) == 0 || !reflect.DeepEqual(g.Proto.Bandwidth, w.Proto.Bandwidth) {
						t.Fatalf("point %d: bandwidth series differ or are empty", i)
					}
				}
			}
		})
	}
}

// TestListJobDecoding: every job option a job_list entry can carry
// reaches the built job.
func TestListJobDecoding(t *testing.T) {
	g, err := ParseGridSpec([]byte(`{
		"source": "list",
		"job_list": [
			{"id": "ring", "model": "AlexNet", "gpus": 4, "min_utility": 0.5, "iterations": 10, "comm_pattern": "ring"},
			{"id": "star", "gpus": 3, "comm_pattern": "star"},
			{"id": "mp", "model": "CaffeRef", "batch_size": 8, "gpus": 2, "model_parallel": true},
			{"id": "mn", "gpus": 2, "single_node": false, "anti_collocate": true, "arrival_s": 4.5},
			{"id": "a2a", "gpus": 3, "comm_pattern": "all-to-all"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := g.listJobs()
	if err != nil {
		t.Fatal(err)
	}
	ring, star, mp, mn, a2a := jobs[0], jobs[1], jobs[2], jobs[3], jobs[4]
	if ring.Iterations != 10 || ring.MinUtility != 0.5 || len(ring.CommGraph().Underlying().Edges()) != 4 {
		t.Fatalf("ring entry built as %+v", ring)
	}
	if len(star.CommGraph().Underlying().Edges()) != 2 || star.Model != perfmodel.AlexNet || star.BatchSize != 1 {
		t.Fatalf("star entry built as %+v", star)
	}
	if mp.Parallelism != perfmodel.ModelParallel || mp.Model != perfmodel.CaffeRef || mp.BatchSize != 8 {
		t.Fatalf("model-parallel entry built as %+v", mp)
	}
	if mn.SingleNode || !mn.AntiCollocate || mn.Arrival != 4.5 {
		t.Fatalf("multi-node entry built as %+v", mn)
	}
	if !ring.SingleNode || len(a2a.CommGraph().Underlying().Edges()) != 3 {
		t.Fatalf("defaults not applied: single-node %v, all-to-all edges %d", ring.SingleNode, len(a2a.CommGraph().Underlying().Edges()))
	}
	// Every point builds its own jobs: the scheduler mutates them.
	again, err := g.listJobs()
	if err != nil {
		t.Fatal(err)
	}
	if again[0] == ring {
		t.Fatal("listJobs handed out the same job twice")
	}
	errCase(t, "unknown comm pattern",
		`{"source": "list", "job_list": [{"id": "m", "gpus": 2, "comm_pattern": "mesh"}]}`,
		`job_list[0] "m"`, "mesh")
}

// sampleListSpec is a small hand-written list experiment: two policies on
// one Minsky machine, replaying two jobs.
const sampleListSpec = `{
	"name": "sample",
	"engine": "sim",
	"source": "list",
	"policies": ["FCFS", "TOPO-AWARE-P"],
	"topologies": [{"builder": "minsky"}],
	"job_list": [
		{"id": "a", "model": "AlexNet", "batch_size": 1, "gpus": 2, "min_utility": 0.5, "arrival_s": 0, "iterations": 100},
		{"id": "b", "model": "GoogLeNet", "batch_size": 128, "gpus": 1, "min_utility": 0.3, "arrival_s": 5, "iterations": 50}
	]
}`

// TestListGridValidation: each single mistake in an otherwise valid list
// experiment makes the spec fail to parse.
func TestListGridValidation(t *testing.T) {
	type spec = map[string]any
	entry := func(s spec, i int) spec { return s["job_list"].([]any)[i].(spec) }
	mutations := map[string]func(spec){
		"no policies":   func(s spec) { s["policies"] = []any{} },
		"no jobs":       func(s spec) { delete(s, "job_list") },
		"bad topology":  func(s spec) { s["topologies"].([]any)[0].(spec)["builder"] = "abacus" },
		"bad policy":    func(s spec) { s["policies"].([]any)[0] = "LIFO" },
		"bad model":     func(s spec) { entry(s, 0)["model"] = "ResNet" },
		"bad pattern":   func(s spec) { entry(s, 0)["comm_pattern"] = "mesh" },
		"bad weights":   func(s spec) { s["alphas_cc"] = []any{1.5} },
		"bad job":       func(s spec) { entry(s, 0)["gpus"] = 0 },
		"zero machines": func(s spec) { s["machines"] = []any{0} },
	}
	parseMutated := func(mutate func(spec)) error {
		var s spec
		if err := json.Unmarshal([]byte(sampleListSpec), &s); err != nil {
			t.Fatal(err)
		}
		mutate(s)
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ParseGridSpec(data)
		return err
	}
	for name, mutate := range mutations {
		if parseMutated(mutate) == nil {
			t.Fatalf("case %q: invalid spec accepted", name)
		}
	}
	if err := parseMutated(func(spec) {}); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestListEnginesAgree is the simulator validation on a list grid: the
// simulator and the prototype emulator replay the same job_list to
// makespans within 5% of each other, policy for policy.
func TestListEnginesAgree(t *testing.T) {
	sim, err := ParseGridSpec([]byte(sampleListSpec))
	if err != nil {
		t.Fatal(err)
	}
	proto := sim
	proto.Engine = EngineProto
	simRep, err := Run(sim, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	protoRep, err := Run(proto, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(simRep.Points) != 2 || len(protoRep.Points) != 2 {
		t.Fatalf("points = %d sim, %d proto, want 2", len(simRep.Points), len(protoRep.Points))
	}
	for i, s := range simRep.Points {
		p := protoRep.Points[i]
		if s.Policy != p.Policy || p.Makespan == 0 {
			t.Fatalf("point %d: policies %v/%v, proto makespan %g", i, s.Policy, p.Policy, p.Makespan)
		}
		if rel := math.Abs(s.Makespan-p.Makespan) / p.Makespan; rel > 0.05 {
			t.Fatalf("%v: engines diverge %.1f%%", s.Policy, rel*100)
		}
	}
}
