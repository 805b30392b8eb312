package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gputopo/internal/sweep"
)

func TestListGridsSortedAndComplete(t *testing.T) {
	var buf bytes.Buffer
	if err := listGrids(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("grid listing not sorted: %v", names)
	}
	if len(names) != len(sweep.GridNames()) {
		t.Fatalf("listing has %d grids, registry has %d", len(names), len(sweep.GridNames()))
	}
}

func TestListGridsDumpsSpecTemplate(t *testing.T) {
	var buf bytes.Buffer
	if err := listGrids(&buf, []string{"topology"}); err != nil {
		t.Fatal(err)
	}
	g, err := sweep.ParseGridSpec(buf.Bytes())
	if err != nil {
		t.Fatalf("dumped spec does not parse back: %v", err)
	}
	if g.Name != "topology" || len(g.Topologies) != 3 {
		t.Fatalf("round-tripped grid %q with %d topologies", g.Name, len(g.Topologies))
	}
}

func TestListGridsUnknownNameErrors(t *testing.T) {
	if err := listGrids(&bytes.Buffer{}, []string{"no-such-grid"}); err == nil {
		t.Fatal("unknown grid name did not error")
	}
	if err := listGrids(&bytes.Buffer{}, []string{"a", "b"}); err == nil {
		t.Fatal("two positional args did not error")
	}
}

func TestRunUnknownGridErrors(t *testing.T) {
	if err := run(&bytes.Buffer{}, "no-such-grid", runOpts{workers: 1, seed: 1, quiet: true}); err == nil {
		t.Fatal("unknown grid name did not error")
	}
}

// readReport decodes the JSON artifact a run wrote to path.
func readReport(t *testing.T, path string) sweep.Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep sweep.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// writeSpec drops a tiny single-cell grid spec into a temp dir.
func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const tinySpec = `{
  "name": "tiny",
  "policies": ["TOPO-AWARE"],
  "machines": [1],
  "jobs": [5],
  "base_seed": 7,
  "rate_per_machine": 2
}`

func TestRunGridSpecFile(t *testing.T) {
	path := writeSpec(t, tinySpec)
	outPath := filepath.Join(filepath.Dir(path), "out.json")
	var buf bytes.Buffer
	if err := run(&buf, "@"+path, runOpts{workers: 2, out: outPath, quiet: true}); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, outPath)
	if rep.Grid.Name != "tiny" || len(rep.Points) != 1 {
		t.Fatalf("artifact grid %q with %d points", rep.Grid.Name, len(rep.Points))
	}
	if rep.Grid.BaseSeed != 7 {
		t.Fatalf("spec base_seed overridden to %d without an explicit -seed", rep.Grid.BaseSeed)
	}
}

// TestRunHeteroGridSpecFile drives a mixed-machine + discovered-matrix
// spec through the CLI path end to end.
func TestRunHeteroGridSpecFile(t *testing.T) {
	dir := t.TempDir()
	matrixPath := filepath.Join(dir, "machine.matrix")
	matrix := "     GPU0  GPU1  GPU2  GPU3\n" +
		"GPU0 X     NV2   SYS   SYS\n" +
		"GPU1 NV2   X     SYS   SYS\n" +
		"GPU2 SYS   SYS   X     NV2\n" +
		"GPU3 SYS   SYS   NV2   X\n"
	if err := os.WriteFile(matrixPath, []byte(matrix), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := `{
  "name": "hetero-tiny",
  "policies": ["TOPO-AWARE-P"],
  "topologies": [
    {"mix": [{"kind": "minsky", "count": 1}, {"kind": "pcie", "count": 1}]},
    {"matrix_file": ` + strconv.Quote(matrixPath) + `, "machines": 2}
  ],
  "jobs": [5],
  "base_seed": 7,
  "rate_per_machine": 2
}`
	path := writeSpec(t, spec)
	outPath := filepath.Join(dir, "out.json")
	if err := run(&bytes.Buffer{}, "@"+path, runOpts{workers: 2, out: outPath, quiet: true}); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, outPath)
	if len(rep.Points) != 2 {
		t.Fatalf("artifact has %d points, want 2", len(rep.Points))
	}
	if got := rep.Points[0].Topology.Key(); got != "mix[minsky:1+pcie:1]" {
		t.Fatalf("first point topology %q", got)
	}
	if rep.Points[0].Machines != 2 || rep.Points[1].Machines != 2 {
		t.Fatalf("machine counts %d/%d, want 2/2", rep.Points[0].Machines, rep.Points[1].Machines)
	}
}

// TestRunBadHeteroSpecFails covers the CLI-visible validation error
// paths: a missing matrix file and a mix/builder conflict both abort
// before any simulation runs.
func TestRunBadHeteroSpecFails(t *testing.T) {
	missing := writeSpec(t, `{"topologies": [{"matrix_file": "no/such.matrix"}]}`)
	if err := run(&bytes.Buffer{}, "@"+missing, runOpts{workers: 1, quiet: true}); err == nil {
		t.Fatal("missing matrix file did not error")
	}
	conflict := writeSpec(t, `{"topologies": [{"builder": "minsky", "mix": [{"kind": "dgx1", "count": 1}]}]}`)
	if err := run(&bytes.Buffer{}, "@"+conflict, runOpts{workers: 1, quiet: true}); err == nil {
		t.Fatal("mix+builder conflict did not error")
	}
}

func TestRunGridSpecFileSeedOverride(t *testing.T) {
	path := writeSpec(t, tinySpec)
	outPath := filepath.Join(filepath.Dir(path), "out.json")
	if err := run(&bytes.Buffer{}, "@"+path, runOpts{workers: 1, out: outPath, seed: 99, seedSet: true, quiet: true}); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, outPath)
	if rep.Grid.BaseSeed != 99 {
		t.Fatalf("explicit -seed not applied: base_seed = %d", rep.Grid.BaseSeed)
	}
}

// TestRunWritesProfiles: -cpuprofile and -memprofile leave non-empty
// pprof files beside a normal run.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	err := run(&bytes.Buffer{}, "@"+writeSpec(t, tinySpec), runOpts{
		workers: 2, quiet: true, cpuProfile: cpu, memProfile: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("%s missing or empty (err=%v)", p, err)
		}
	}
}
