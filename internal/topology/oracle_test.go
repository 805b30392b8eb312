package topology

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMatricesEqualWholeGraphSearch holds every table Build derives to
// refTopology, the parent commit's derivation (reference_test.go): float
// results by math.Float64bits, the rest by value. Equal-distance ties
// decide PathBandwidth and P2P, so this is what pins the search's
// relaxation order. Each case family must be non-empty.
func TestMatricesEqualWholeGraphSearch(t *testing.T) {
	families := map[string]int{}
	check := func(family, label string, topo *Topology, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s: %v", family, label, err)
		}
		families[family]++
		if diff := diffFromReference(topo, newRefTopology(topo)); diff != "" {
			t.Errorf("%s %s: %s", family, label, diff)
		}
	}

	kinds := []MachineKind{KindMinsky, KindDGX1, KindPCIeBox}
	for _, kind := range kinds {
		topo, err := Machine(kind, DefaultWeights())
		check("standalone", kind.String(), topo, err)
		for failed := 1; failed < kindTable[kind].gpus; failed++ {
			topo, err := DegradedMachine(kind, failed)
			check("degraded", fmt.Sprintf("%s-%dg", kind, failed), topo, err)
		}
		for _, n := range []int{1, 3} {
			check("cluster", fmt.Sprintf("%s:%d", kind, n), Cluster(n, kind), nil)
		}
	}
	// The second mix has a socket with no GPU on it.
	for _, mix := range []string{"minsky:2+minsky-1g:1+dgx1:1+pcie:2", "dgx1-4g:2"} {
		specs, err := ParseMix(mix)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := HeterogeneousCluster(specs)
		check("mix", mix, topo, err)
	}

	dgx1Matrix, err := os.ReadFile("../../examples/sweeps/dgx1.matrix")
	if err != nil {
		t.Fatal(err)
	}
	// FuzzParseMatrix's f.Add seeds (fuzz_test.go) and its corpus files.
	matrices := map[string]string{
		"dgx1.matrix": string(dgx1Matrix),
		"seed-minsky": Power8Minsky().RenderMatrix(),
		"seed-dgx1":   DGX1().RenderMatrix(),
		"seed-pcie":   PCIeBox().RenderMatrix(),
		"seed-1gpu":   "     GPU0 CPUAffinity\nGPU0 X    0-7\n",
		"seed-text":   "garbage\n",
		"seed-empty":  "",
	}
	corpus, err := filepath.Glob("testdata/fuzz/FuzzParseMatrix/*")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no FuzzParseMatrix corpus under testdata/fuzz (%v)", err)
	}
	for _, path := range corpus {
		matrices[filepath.Base(path)] = readFuzzString(t, path)
	}
	for label, text := range matrices {
		if _, err := ParseMatrix(text); err != nil {
			continue // the unparseable seeds are the parser's business
		}
		for _, n := range []int{1, 3} {
			topo, err := MatrixCluster(text, n)
			check("matrix", fmt.Sprintf("%s x%d", label, n), topo, err)
		}
		topo, err := ParseMatrix(text)
		check("matrix", label+" standalone", topo, err)
	}

	for _, family := range []string{"standalone", "degraded", "cluster", "mix", "matrix"} {
		if families[family] == 0 {
			t.Errorf("case family %q is empty", family)
		}
	}
	if families["matrix"] < 3*5 {
		t.Errorf("%d matrix cases, want dgx1.matrix and the four parseable fuzz seeds at least", families["matrix"])
	}
}

// readFuzzString decodes a one-string "go test fuzz v1" corpus file.
func readFuzzString(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, line, ok := strings.Cut(strings.TrimSpace(string(data)), "\n")
	quoted, isString := strings.CutPrefix(line, "string(")
	if !ok || !isString || !strings.HasSuffix(quoted, ")") {
		t.Fatalf("%s: not a one-string fuzz corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// diffFromReference names the first table entry where topo and ref
// disagree, "" when there is none.
func diffFromReference(topo *Topology, ref *refTopology) string {
	bits := math.Float64bits
	n := topo.NumGPUs()
	if n != len(ref.gpus) || !slices.Equal(topo.gpus, ref.gpus) || !slices.Equal(topo.machines, ref.machines) {
		return "GPU or machine vertex order differs"
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if got, want := topo.Distance(a, b), ref.Distance(a, b); bits(got) != bits(want) {
				return fmt.Sprintf("Distance(%d,%d) = %v, reference %v", a, b, got, want)
			}
			if got, want := topo.PathBandwidth(a, b), ref.PathBandwidth(a, b); bits(got) != bits(want) {
				return fmt.Sprintf("PathBandwidth(%d,%d) = %v, reference %v", a, b, got, want)
			}
			if got, want := topo.P2P(a, b), ref.P2P(a, b); got != want {
				return fmt.Sprintf("P2P(%d,%d) = %v, reference %v", a, b, got, want)
			}
		}
		if got, want := topo.RootDistance(a), ref.RootDistance(a); bits(got) != bits(want) {
			return fmt.Sprintf("RootDistance(%d) = %v, reference %v", a, got, want)
		}
		if got, want := topo.MachineOf(a), ref.MachineOf(a); got != want {
			return fmt.Sprintf("MachineOf(%d) = %d, reference %d", a, got, want)
		}
		if got, want := topo.SocketSize(a), ref.SocketSize(a); got != want {
			return fmt.Sprintf("SocketSize(%d) = %d, reference %d", a, got, want)
		}
		if got, want := topo.SocketBit(a), ref.SocketBit(a); got != want {
			return fmt.Sprintf("SocketBit(%d) = %#x, reference %#x", a, got, want)
		}
	}
	if got, want := topo.MinPairDistance(), ref.MinPairDistance(); bits(got) != bits(want) {
		return fmt.Sprintf("MinPairDistance = %v, reference %v", got, want)
	}
	if got, want := topo.NumMachines(), len(ref.machineStart); got != want {
		return fmt.Sprintf("NumMachines = %d, reference has %d runs of GPUs", got, want)
	}
	// One machine past either end too: both sides must answer nil there.
	for m := -1; m <= topo.NumMachines(); m++ {
		if got, want := topo.GPUsOfMachine(m), ref.GPUsOfMachine(m); !slices.Equal(got, want) {
			return fmt.Sprintf("GPUsOfMachine(%d) = %v, reference %v", m, got, want)
		}
		if got, want := topo.Sockets(m), ref.Sockets(m); !slices.Equal(got, want) {
			return fmt.Sprintf("Sockets(%d) = %v, reference %v", m, got, want)
		}
		for s := -1; s <= MaxSocketsPerMachine; s++ {
			if got, want := topo.GPUsOfSocket(m, s), ref.GPUsOfSocket(m, s); !slices.Equal(got, want) {
				return fmt.Sprintf("GPUsOfSocket(%d,%d) = %v, reference %v", m, s, got, want)
			}
		}
		if m >= 0 && m < topo.NumMachines() {
			if got, want := topo.MachineShape(m), ref.machineShape(m); got != want {
				return fmt.Sprintf("MachineShape(%d) = %q, reference %q", m, got, want)
			}
		}
	}
	return ""
}

// TestBuildRejectsNonDenseMachines: machine m is the m-th machine vertex
// added and carries Node.Machine == m, every GPU names one of them and
// every machine has a GPU — anything else panics in Build rather than
// build tables two numberings disagree on.
func TestBuildRejectsNonDenseMachines(t *testing.T) {
	type gpu struct{ machine, index int }
	build := func(machines []int, gpus []gpu) (err any) {
		defer func() { err = recover() }()
		b := NewBuilder("test")
		ids := map[int]int{}
		for _, m := range machines {
			ids[m] = b.AddNode(LevelMachine, fmt.Sprintf("M%d", m), m, -1, -1)
		}
		for _, g := range gpus {
			id := b.AddNode(LevelGPU, fmt.Sprintf("M%d/GPU%d", g.machine, g.index), g.machine, 0, g.index)
			if mID, ok := ids[g.machine]; ok {
				b.AddLink(mID, id, LinkPCIe, BandwidthPCIe, 1)
			}
		}
		b.Build()
		return nil
	}
	for _, tc := range []struct {
		name     string
		machines []int
		gpus     []gpu
		want     string // substring of the panic, "" = must build
	}{
		{"dense", []int{0, 1}, []gpu{{1, 0}, {0, 0}, {0, 1}}, ""},
		{"gap in machine values", []int{0, 2}, []gpu{{0, 0}, {2, 0}}, "numbered 2"},
		{"machines added out of order", []int{1, 0}, []gpu{{0, 0}, {1, 0}}, "numbered 1"},
		{"machine values start at 1", []int{1}, []gpu{{1, 0}}, "numbered 1"},
		{"GPU on a machine that has no vertex", []int{0}, []gpu{{0, 0}, {1, 0}}, "is on machine 1"},
		{"GPU on a negative machine", []int{0}, []gpu{{0, 0}, {-1, 0}}, "is on machine -1"},
		{"machine with no GPU", []int{0, 1, 2}, []gpu{{0, 0}, {2, 0}}, "machine 1 has no GPU"},
		{"GPUs but no machine vertex", nil, []gpu{{0, 0}}, "is on machine 0"},
	} {
		got := build(tc.machines, tc.gpus)
		switch {
		case tc.want == "" && got != nil:
			t.Errorf("%s: Build panicked: %v", tc.name, got)
		case tc.want != "" && (got == nil || !strings.Contains(fmt.Sprint(got), tc.want)):
			t.Errorf("%s: Build panic = %v, want one naming %q", tc.name, got, tc.want)
		}
	}
}
