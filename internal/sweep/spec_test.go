package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gputopo/internal/topology"
)

func TestParseGridSpecValid(t *testing.T) {
	g, err := ParseGridSpec([]byte(`{
		"name": "adhoc",
		"policies": ["FCFS", "TOPO-AWARE-P"],
		"topologies": [
			{"builder": "minsky", "machines": 4},
			{"builder": "dgx1", "machines": 2, "weights": {"socket": 40}}
		],
		"jobs": [50],
		"alphas_cc": [0.5],
		"replicas": 2,
		"base_seed": 42
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Points()) != 2*2*2 {
		t.Fatalf("points = %d, want 8", len(g.Points()))
	}
	if g.Topologies[1].Weights.Socket != 40 {
		t.Fatalf("weights lost: %+v", g.Topologies[1])
	}
	// Pinned machine counts flow into the points.
	if pts := g.Points(); pts[0].Machines != 4 || pts[len(pts)-1].Machines != 2 {
		t.Fatalf("pinned machine counts not applied: %d/%d", pts[0].Machines, pts[len(pts)-1].Machines)
	}
}

// errCase asserts ParseGridSpec rejects the spec with an error mentioning
// every fragment.
func errCase(t *testing.T, label, spec string, fragments ...string) {
	t.Helper()
	_, err := ParseGridSpec([]byte(spec))
	if err == nil {
		t.Fatalf("%s: spec accepted", label)
	}
	for _, f := range fragments {
		if !strings.Contains(err.Error(), f) {
			t.Fatalf("%s: error %q does not mention %q", label, err, f)
		}
	}
}

func TestParseGridSpecErrors(t *testing.T) {
	errCase(t, "malformed JSON", `{"name": "x",`)
	errCase(t, "trailing data", `{"name": "x"} {"name": "y"}`, "trailing")
	errCase(t, "unknown field", `{"name": "x", "polices": ["FCFS"]}`, "polices")
	errCase(t, "unknown policy", `{"policies": ["SJF"]}`, "SJF")
	errCase(t, "unknown engine", `{"engine": "fpga"}`, "fpga")
	errCase(t, "unknown source", `{"source": "replay"}`, "replay")
	errCase(t, "empty policies axis", `{"policies": []}`, "policies", "empty")
	errCase(t, "empty machines axis", `{"machines": []}`, "machines", "empty")
	errCase(t, "empty topologies axis", `{"topologies": []}`, "topologies", "empty")
	errCase(t, "bad topology builder", `{"topologies": [{"builder": "tpu-pod"}]}`, "tpu-pod")
	errCase(t, "negative spec machines", `{"topologies": [{"machines": -1}]}`, "machines")
	errCase(t, "negative weight", `{"topologies": [{"weights": {"socket": -3}}]}`, "socket")
	errCase(t, "zero machines", `{"machines": [0]}`, "machines")
	errCase(t, "negative jobs", `{"jobs": [-5]}`, "jobs")
	errCase(t, "alpha out of range", `{"alphas_cc": [1.5]}`, "alphas_cc")
	errCase(t, "threshold out of range", `{"thresholds": [2]}`, "thresholds")
	errCase(t, "negative replicas", `{"replicas": -1}`, "replicas")
	errCase(t, "negative rate", `{"rate_per_machine": -2}`, "rate_per_machine")
	errCase(t, "pinned machines with machines axis",
		`{"topologies": [{"builder": "minsky", "machines": 2}], "machines": [2]}`,
		"machines axis")
	errCase(t, "list without job_list", `{"source": "list"}`, "non-empty job_list")
	errCase(t, "list with empty job_list", `{"source": "list", "job_list": []}`, "non-empty job_list")
	errCase(t, "job_list on table1", `{"source": "table1", "job_list": [{"id": "a", "gpus": 1}]}`, "job_list needs source")
	errCase(t, "job_list on generated", `{"job_list": [{"id": "a", "gpus": 1}]}`, "job_list needs source")
	errCase(t, "job_list entry without id", `{"source": "list", "job_list": [{"gpus": 1}]}`, `job_list[0] ""`, "empty ID")
	errCase(t, "job_list duplicate id",
		`{"source": "list", "job_list": [{"id": "a", "gpus": 1}, {"id": "a", "gpus": 2}]}`,
		`job_list[1] "a"`, "duplicate")
	errCase(t, "job_list bad gpus", `{"source": "list", "job_list": [{"id": "z", "gpus": 0}]}`, `job_list[0] "z"`, "GPU count")
	errCase(t, "job_list unknown model",
		`{"source": "list", "job_list": [{"id": "r", "model": "ResNet", "gpus": 1}]}`,
		`job_list[0] "r"`, "ResNet")
	errCase(t, "job_list unknown field", `{"source": "list", "job_list": [{"id": "a", "gpus": 1, "multi_node": true}]}`, "multi_node")
	errCase(t, "list with sharded domains",
		`{"source": "list", "job_list": [{"id": "a", "gpus": 1}], "domains": ["hash:2"]}`,
		"sharded domains")
	errCase(t, "list with a sharded topology",
		`{"source": "list", "job_list": [{"id": "a", "gpus": 1}], "topologies": [{"machines": 4, "domains": "hash:2"}]}`,
		"sharded domains")
}

// writeMatrixFile drops a rendered connectivity matrix into a temp dir
// and returns its path.
func writeMatrixFile(t *testing.T, topo *topology.Topology) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "machine.matrix")
	if err := os.WriteFile(path, []byte(topo.RenderMatrix()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseGridSpecMixAndMatrixErrors(t *testing.T) {
	errCase(t, "mix with builder",
		`{"topologies": [{"builder": "minsky", "mix": [{"kind": "dgx1", "count": 1}]}]}`,
		"mix and builder")
	errCase(t, "mix with matrix_file",
		`{"topologies": [{"mix": [{"kind": "dgx1", "count": 1}], "matrix_file": "x"}]}`,
		"mix and matrix_file")
	errCase(t, "mix with pinned machines",
		`{"topologies": [{"mix": [{"kind": "dgx1", "count": 1}], "machines": 2}]}`,
		"pins its own machine count")
	errCase(t, "mix with unknown kind",
		`{"topologies": [{"mix": [{"kind": "tpu-pod", "count": 1}]}]}`,
		"tpu-pod")
	errCase(t, "mix with zero count",
		`{"topologies": [{"mix": [{"kind": "dgx1", "count": 0}]}]}`,
		"count >= 1")
	errCase(t, "empty mix",
		`{"topologies": [{"mix": []}]}`,
		"mix is present but empty")
	errCase(t, "mix with machines axis",
		`{"topologies": [{"mix": [{"kind": "dgx1", "count": 1}]}], "machines": [2]}`,
		"machines axis")
	errCase(t, "matrix_file missing",
		`{"topologies": [{"matrix_file": "no/such/file.matrix"}]}`,
		"no/such/file.matrix")
	errCase(t, "matrix_file with builder",
		`{"topologies": [{"builder": "dgx1", "matrix_file": "x"}]}`,
		"matrix_file and builder")
	badMatrix := filepath.Join(t.TempDir(), "bad.matrix")
	if err := os.WriteFile(badMatrix, []byte("not a matrix at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	errCase(t, "matrix_file unparseable",
		`{"topologies": [{"matrix_file": "`+badMatrix+`"}]}`,
		"matrix")
}

func TestMixSpecKeyBuildAndPoints(t *testing.T) {
	spec := TopologySpec{Mix: []MixEntry{{Kind: "minsky", Count: 2}, {Kind: "dgx1", Count: 1}}}
	if got, want := spec.Key(), "mix[minsky:2+dgx1:1]"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	if got := spec.EffectiveMachines(7); got != 3 {
		t.Fatalf("EffectiveMachines = %d, want 3 (mix pins its total)", got)
	}
	topo, err := spec.Build(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 2*4+8 || topo.NumMachines() != 3 {
		t.Fatalf("mix built %d GPUs on %d machines", topo.NumGPUs(), topo.NumMachines())
	}

	g, err := ParseGridSpec([]byte(`{
		"name": "hetero-adhoc",
		"policies": ["TOPO-AWARE-P"],
		"topologies": [{"mix": [{"kind": "minsky", "count": 2}, {"kind": "dgx1", "count": 1}]}],
		"jobs": [10],
		"base_seed": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	pts := g.Points()
	if len(pts) != 1 || pts[0].Machines != 3 {
		t.Fatalf("mix grid expanded to %d points, machines %d", len(pts), pts[0].Machines)
	}
}

func TestMatrixFileSpecKeyAndBuild(t *testing.T) {
	path := writeMatrixFile(t, topology.DGX1())
	spec := TopologySpec{MatrixFile: path, Machines: 2}
	if got, want := spec.Key(), "matrix["+path+"]:2"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	// Cluster build stamps the parsed machine per machine count.
	topo, err := spec.Build(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 16 || topo.NumMachines() != 2 {
		t.Fatalf("matrix cluster built %d GPUs on %d machines", topo.NumGPUs(), topo.NumMachines())
	}
	// Standalone single-machine build goes through ParseMatrix directly.
	topo, err = TopologySpec{MatrixFile: path}.Build(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 8 || topo.NumMachines() != 1 {
		t.Fatalf("standalone matrix build: %d GPUs on %d machines", topo.NumGPUs(), topo.NumMachines())
	}
}

// TestHeteroAndMatrixSweep runs a real sweep over a mixed cluster and a
// discovered-matrix substrate and checks both land in distinct cells.
func TestHeteroAndMatrixSweep(t *testing.T) {
	path := writeMatrixFile(t, topology.Power8Minsky())
	g := Grid{
		Name: "hetero-matrix",
		Topologies: []TopologySpec{
			{Mix: []MixEntry{{Kind: "minsky", Count: 1}, {Kind: "dgx1", Count: 1}}},
			{MatrixFile: path, Machines: 2},
		},
		Jobs:           []int{10},
		BaseSeed:       7,
		RatePerMachine: 2,
	}
	rep, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(rep.Cells))
	}
	csv := string(rep.CSV())
	if !strings.Contains(csv, "mix[minsky:1+dgx1:1]") || !strings.Contains(csv, "matrix["+path+"]:2") {
		t.Fatalf("CSV missing hetero/matrix topology keys:\n%s", csv)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, name := range GridNames() {
		g, err := Named(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		js, err := g.SpecJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseGridSpec(js)
		if err != nil {
			t.Fatalf("grid %q template does not parse back: %v", name, err)
		}
		if len(back.Points()) != len(g.Points()) {
			t.Fatalf("grid %q round-trip changed point count %d -> %d",
				name, len(g.Points()), len(back.Points()))
		}
	}
}

func TestParseGridSpecRejectsGarbage(t *testing.T) {
	errCase(t, "not JSON", "nope", "invalid grid spec")
}

// TestTopologySpecBuildVariants: every single-machine builder, and the
// default, builds standalone with its GPU count; a cluster spec builds
// one machine's GPUs per machine.
func TestTopologySpecBuildVariants(t *testing.T) {
	cases := map[string]int{"minsky": 4, "": 4, "dgx1": 8, "pcie": 4}
	for name, gpus := range cases {
		topo, err := TopologySpec{Builder: name}.Build(1, true)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if topo.NumGPUs() != gpus {
			t.Fatalf("%q: GPUs = %d, want %d", name, topo.NumGPUs(), gpus)
		}
	}
	topo, err := TopologySpec{Builder: "minsky", Machines: 3}.Build(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 12 {
		t.Fatalf("3-machine cluster GPUs = %d, want 12", topo.NumGPUs())
	}
}

func TestTopologySpecKeyAndBuild(t *testing.T) {
	cases := []struct {
		spec TopologySpec
		key  string
	}{
		{TopologySpec{}, "minsky"},
		{TopologySpec{Builder: "dgx1", Machines: 2}, "dgx1:2"},
		{TopologySpec{Builder: "pcie", Weights: &topology.LevelWeights{Socket: 5}}, "pcie[socket=5]"},
		{TopologySpec{Weights: &topology.LevelWeights{GPUPeer: 2, Machine: 50}}, "minsky[gpupeer=2;machine=50]"},
	}
	for _, c := range cases {
		if got := c.spec.Key(); got != c.key {
			t.Fatalf("Key() = %q, want %q", got, c.key)
		}
	}

	// Standalone build matches the plain builders.
	topo, err := TopologySpec{}.Build(0, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := topology.Power8Minsky(); topo.Name != want.Name || topo.NumGPUs() != want.NumGPUs() {
		t.Fatalf("standalone minsky built %q with %d GPUs", topo.Name, topo.NumGPUs())
	}
	// Cluster build for generated workloads, even at one machine.
	topo, err = TopologySpec{}.Build(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := topology.Cluster(1, topology.KindMinsky); topo.Name != want.Name {
		t.Fatalf("generated single-machine topology %q, want %q", topo.Name, want.Name)
	}
	// DGX-1 cluster has 8 GPUs per machine.
	topo, err = TopologySpec{Builder: "dgx1", Machines: 2}.Build(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 16 {
		t.Fatalf("dgx1:2 has %d GPUs, want 16", topo.NumGPUs())
	}
	if _, err := (TopologySpec{Builder: "bogus"}).Build(1, false); err == nil {
		t.Fatal("bogus builder did not error")
	}
}

// TestTopologyAxisSweep runs a real sweep over the topology axis and
// checks that the axis lands in cells, keys and artifacts.
func TestTopologyAxisSweep(t *testing.T) {
	g := Grid{
		Name: "topo-axis",
		Topologies: []TopologySpec{
			{Builder: "minsky", Machines: 2},
			{Builder: "pcie", Machines: 2},
		},
		Jobs:           []int{10},
		BaseSeed:       7,
		RatePerMachine: 2,
	}
	rep, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2*4 {
		t.Fatalf("points = %d, want 8", len(rep.Points))
	}
	// Cells are grouped by key, so a key that ignored the topology would
	// merge cells here.
	if len(rep.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(rep.Cells))
	}
	// The same workload stream placed on NVLink vs PCIe machines must not
	// be identical in every metric — otherwise the axis is not reaching
	// the engine.
	if rep.Cells[0].Makespan.Mean == rep.Cells[4].Makespan.Mean &&
		rep.Cells[0].TotalWait.Mean == rep.Cells[4].TotalWait.Mean &&
		rep.Cells[0].MeanQoS.Mean == rep.Cells[4].MeanQoS.Mean {
		t.Fatal("minsky and pcie cells are metric-identical; topology axis ineffective")
	}
	csv := string(rep.CSV())
	if !strings.Contains(csv, "minsky:2") || !strings.Contains(csv, "pcie:2") {
		t.Fatalf("CSV missing topology keys:\n%s", csv)
	}
}

// TestMatrixFileResolvesAgainstSpecDir proves spec files are relocatable:
// a matrix_file path relative to the spec file's directory resolves even
// when the working directory is somewhere else entirely.
func TestMatrixFileResolvesAgainstSpecDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "machine.matrix"),
		[]byte(topology.DGX1().RenderMatrix()), 0o644); err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(specPath, []byte(`{
		"name": "relocatable",
		"policies": ["FCFS"],
		"topologies": [{"matrix_file": "machine.matrix", "machines": 2}],
		"jobs": [5],
		"base_seed": 7
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// The working directory (the package dir) has no machine.matrix, so
	// only spec-dir resolution can make this load.
	g, err := LoadGridSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := g.Topologies[0].Build(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 16 || topo.NumMachines() != 2 {
		t.Fatalf("built %d GPUs on %d machines", topo.NumGPUs(), topo.NumMachines())
	}
	// The artifact key records the path exactly as written — resolution
	// must not leak temp-dir prefixes into cell keys.
	if got, want := g.Topologies[0].Key(), "matrix[machine.matrix]:2"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
}

// TestMatrixFileSpecDirFallsBackToCWD keeps the legacy behavior: when the
// path does not exist next to the spec file, it resolves against the
// working directory (how examples/sweeps/hetero.json addresses its
// matrix from the repo root).
func TestMatrixFileSpecDirFallsBackToCWD(t *testing.T) {
	cwd := t.TempDir()
	if err := os.MkdirAll(filepath.Join(cwd, "shared"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cwd, "shared", "machine.matrix"),
		[]byte(topology.DGX1().RenderMatrix()), 0o644); err != nil {
		t.Fatal(err)
	}
	specDir := t.TempDir() // no matrix here
	specPath := filepath.Join(specDir, "grid.json")
	if err := os.WriteFile(specPath, []byte(`{
		"name": "cwd-fallback",
		"policies": ["FCFS"],
		"topologies": [{"matrix_file": "shared/machine.matrix", "machines": 1}],
		"jobs": [5],
		"base_seed": 7
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(cwd)
	g, err := LoadGridSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := g.Topologies[0].Build(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 8 {
		t.Fatalf("built %d GPUs, want 8", topo.NumGPUs())
	}
}

// TestMatrixFileBareSpecUsesCWD covers specs with no file origin (named
// grids, hand-built TopologySpec values): resolution stays working-
// directory based.
func TestMatrixFileBareSpecUsesCWD(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "m.matrix"),
		[]byte(topology.DGX1().RenderMatrix()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	spec := TopologySpec{MatrixFile: "m.matrix"}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Build(1, true); err != nil {
		t.Fatal(err)
	}
}

// TestMixSpecDegradedKinds covers the "-<n>g" degraded-machine syntax at
// the sweep layer: key rendering, building, validation errors, and grid
// expansion through a spec file.
func TestMixSpecDegradedKinds(t *testing.T) {
	spec := TopologySpec{Mix: []MixEntry{{Kind: "minsky", Count: 2}, {Kind: "minsky-1g", Count: 1}}}
	if got, want := spec.Key(), "mix[minsky:2+minsky-1g:1]"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	topo, err := spec.Build(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs() != 2*4+3 || topo.NumMachines() != 3 {
		t.Fatalf("degraded mix built %d GPUs on %d machines, want 11 on 3", topo.NumGPUs(), topo.NumMachines())
	}

	// Too many failed GPUs must fail validation before any simulation.
	bad := TopologySpec{Mix: []MixEntry{{Kind: "minsky-4g", Count: 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("minsky-4g (no GPUs left) accepted")
	}

	g, err := ParseGridSpec([]byte(`{
		"name": "degraded-adhoc",
		"policies": ["TOPO-AWARE-P"],
		"topologies": [{"mix": [{"kind": "dgx1-5g", "count": 1}, {"kind": "pcie", "count": 1}]}],
		"jobs": [5],
		"base_seed": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	pts := g.Points()
	if len(pts) != 1 || pts[0].Machines != 2 {
		t.Fatalf("degraded grid expanded to %d points, machines %d", len(pts), pts[0].Machines)
	}
	if _, err := Run(g, Options{Workers: 2}); err != nil {
		t.Fatalf("degraded-mix grid failed to run: %v", err)
	}
}
