package manifest

import (
	"bytes"
	"strings"
	"testing"

	"gputopo/internal/perfmodel"
)

func sample() *Experiment {
	return &Experiment{
		System: SystemConfig{Simulation: true, Topology: "minsky"},
		Algorithms: []AlgorithmConfig{
			{Name: "FCFS"},
			{Name: "TOPO-AWARE-P"},
		},
		Jobs: []JobManifest{
			{ID: "a", Model: "AlexNet", BatchSize: 1, GPUs: 2, MinUtility: 0.5, Arrival: 0, Iterations: 100},
			{ID: "b", Model: "GoogLeNet", BatchSize: 128, GPUs: 1, MinUtility: 0.3, Arrival: 5, Iterations: 50},
		},
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 2 || len(back.Algorithms) != 2 {
		t.Fatalf("round trip = %+v", back)
	}
	if !back.System.Simulation {
		t.Fatal("simulation flag lost")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestValidation(t *testing.T) {
	mutations := map[string]func(*Experiment){
		"no algorithms": func(e *Experiment) { e.Algorithms = nil },
		"no jobs":       func(e *Experiment) { e.Jobs = nil },
		"bad topology":  func(e *Experiment) { e.System.Topology = "abacus" },
		"bad policy":    func(e *Experiment) { e.Algorithms[0].Name = "LIFO" },
		"bad model":     func(e *Experiment) { e.Jobs[0].Model = "ResNet" },
		"bad pattern":   func(e *Experiment) { e.Jobs[0].CommPattern = "mesh" },
		"bad weights":   func(e *Experiment) { e.Algorithms[0].AlphaCC = 0.9 },
		"bad job":       func(e *Experiment) { e.Jobs[0].GPUs = 0 },
		"zero machines": func(e *Experiment) { e.System.Topology = "cluster"; e.System.Machines = 0 },
	}
	for name, mutate := range mutations {
		e := sample()
		mutate(e)
		if err := e.Validate(); err == nil {
			t.Fatalf("case %q: invalid experiment accepted", name)
		}
	}
	if err := sample().Validate(); err != nil {
		t.Fatalf("valid experiment rejected: %v", err)
	}
}

func TestBuildTopologyVariants(t *testing.T) {
	cases := map[string]int{"minsky": 4, "": 4, "dgx1": 8, "pcie": 4}
	for name, gpus := range cases {
		e := sample()
		e.System.Topology = name
		topo, err := e.BuildTopology()
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if topo.NumGPUs() != gpus {
			t.Fatalf("%q: GPUs = %d, want %d", name, topo.NumGPUs(), gpus)
		}
	}
	e := sample()
	e.System.Topology = "cluster"
	e.System.Machines = 3
	topo, err := e.BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 12 {
		t.Fatalf("cluster GPUs = %d", topo.NumGPUs())
	}
}

func TestBuildJobsOptions(t *testing.T) {
	e := sample()
	e.Jobs = []JobManifest{
		{ID: "ring", Model: "AlexNet", BatchSize: 1, GPUs: 4, MinUtility: 0.5, CommPattern: "ring", Iterations: 10},
		{ID: "star", Model: "AlexNet", BatchSize: 1, GPUs: 3, MinUtility: 0.5, CommPattern: "star", Iterations: 10},
		{ID: "mp", Model: "CaffeRef", BatchSize: 8, GPUs: 2, MinUtility: 0.5, ModelParallel: true, Iterations: 10},
		{ID: "mn", Model: "AlexNet", BatchSize: 1, GPUs: 2, MinUtility: 0.5, MultiNode: true, AntiCollocate: true, Iterations: 10},
	}
	jobs, err := e.BuildJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs[0].CommGraph().Underlying().Edges()) != 4 {
		t.Fatal("ring pattern not applied")
	}
	if len(jobs[1].CommGraph().Underlying().Edges()) != 2 {
		t.Fatal("star pattern not applied")
	}
	if jobs[2].Parallelism != perfmodel.ModelParallel {
		t.Fatal("model-parallel flag not applied")
	}
	if jobs[3].SingleNode || !jobs[3].AntiCollocate {
		t.Fatal("multi-node / anti-collocation flags not applied")
	}
}

func TestRunSimulationMode(t *testing.T) {
	e := sample()
	runs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, r := range runs {
		if len(r.Result.Jobs) != 2 {
			t.Fatalf("%s: jobs = %d", r.Algorithm.Name, len(r.Result.Jobs))
		}
		if r.Bandwidth != nil {
			t.Fatal("simulation mode should not produce bandwidth series")
		}
	}
}

func TestRunPrototypeMode(t *testing.T) {
	e := sample()
	e.System.Simulation = false
	runs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if len(r.Bandwidth) == 0 {
			t.Fatalf("%s: prototype mode should record bandwidth", r.Algorithm.Name)
		}
	}
}

func TestRunModesAgree(t *testing.T) {
	// The §5.4 validation through the manifest interface: both engines
	// produce near-identical cumulative times.
	sim := sample()
	runsSim, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	proto := sample()
	proto.System.Simulation = false
	runsProto, err := proto.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range runsSim {
		a, b := runsSim[i].Result.Makespan, runsProto[i].Result.Makespan
		rel := (a - b) / b
		if rel < -0.05 || rel > 0.05 {
			t.Fatalf("%s: engines diverge %.1f%%", runsSim[i].Algorithm.Name, rel*100)
		}
	}
}

func TestCustomWeights(t *testing.T) {
	e := sample()
	e.Algorithms = []AlgorithmConfig{{Name: "TOPO-AWARE", AlphaCC: 0.5, AlphaB: 0.25, AlphaD: 0.25}}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
