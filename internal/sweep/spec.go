package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"gputopo/internal/job"
	"gputopo/internal/jobgraph"
	"gputopo/internal/schedcore/domains"
	"gputopo/internal/serveapi"
	"gputopo/internal/topology"
)

// matrixFileCache memoizes matrix-file contents by path for the lifetime
// of the process. Every point of a matrix_file grid re-builds its
// topology, so without the cache a P-point sweep would re-read the file
// P times from inside the worker pool — and a file modified mid-sweep
// could put different substrates inside one artifact, breaking the
// any-worker-count determinism guarantee.
var matrixFileCache sync.Map // path -> string

// readMatrixFile returns the (cached) content of a matrix file. The cache
// key is the absolute path, so relative paths cannot alias across working
// directories.
func readMatrixFile(path string) (string, error) {
	if abs, err := filepath.Abs(path); err == nil {
		path = abs
	}
	if data, ok := matrixFileCache.Load(path); ok {
		return data.(string), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	content, _ := matrixFileCache.LoadOrStore(path, string(data))
	return content.(string), nil
}

// TopologySpec names the physical topology of a grid cell declaratively.
// Exactly one of three sources applies:
//
//   - Builder: a registered homogeneous builder ("minsky", "dgx1",
//     "pcie") sized by Machines or the grid's Machines axis. The zero
//     value is the legacy default — a Minsky cluster sized by the axis.
//   - Mix: a heterogeneous cluster as ordered builder:count runs
//     (topology.HeterogeneousCluster). A mix pins its own machine count.
//   - MatrixFile: a discovered machine parsed from an nvidia-smi-style
//     connectivity-matrix file (topology.ParseMatrix), stamped once per
//     machine under a network root.
//
// Because the spec is plain data, it can serve as a grid axis: the sweep
// engine expands Grid.Topologies like any other axis, and the spec
// round-trips through grid spec files and report artifacts.
type TopologySpec struct {
	// Builder is a name accepted by topology.ParseMachineKind; empty
	// means "minsky" (unless Mix or MatrixFile is set).
	Builder string `json:"builder,omitempty"`
	// Mix declares a heterogeneous cluster as ordered builder:count
	// pairs. Mutually exclusive with Builder, MatrixFile and Machines.
	Mix []MixEntry `json:"mix,omitempty"`
	// MatrixFile is the path of a connectivity-matrix file. In a grid
	// loaded from a spec file, a relative path resolves against the spec
	// file's directory first (so spec files are relocatable) and falls
	// back to the working directory; elsewhere (named grids, hand-built
	// specs) it resolves against the working directory. Mutually
	// exclusive with Builder and Mix.
	MatrixFile string `json:"matrix_file,omitempty"`
	// Machines pins the machine count of this topology. 0 defers to the
	// grid's Machines axis; a grid may set one or the other, not both.
	Machines int `json:"machines,omitempty"`
	// Weights overrides the qualitative level weights (zero fields keep
	// the Figure 7 defaults).
	Weights *topology.LevelWeights `json:"weights,omitempty"`
	// Domains declares sharded multi-domain scheduling over this topology
	// (domains.Parse syntax: "hash:4", "block:2", "kind"). Empty — the
	// value every recorded artifact carries — keeps the single-core
	// engine; see docs/sharding.md.
	Domains string `json:"domains,omitempty"`

	// specDir is the directory of the spec file this spec was loaded
	// from, set by LoadGridSpec. It only affects MatrixFile resolution —
	// Key() keeps the path exactly as written, so artifacts stay
	// byte-identical wherever the spec file lives.
	specDir string
}

// matrixPath resolves MatrixFile: absolute paths and specs without a
// spec-file origin pass through (working-directory semantics); otherwise
// the spec file's directory wins when the file exists there, with the
// working directory as the legacy fallback.
func (ts TopologySpec) matrixPath() string {
	if ts.specDir == "" || filepath.IsAbs(ts.MatrixFile) {
		return ts.MatrixFile
	}
	p := filepath.Join(ts.specDir, ts.MatrixFile)
	if _, err := os.Stat(p); err == nil {
		return p
	}
	return ts.MatrixFile
}

// MixEntry is one run of identical machines in a heterogeneous topology
// spec: Count machines built by the named builder. The kind accepts the
// degraded "-<n>g" suffix ("minsky-1g" is a Minsky with one failed GPU),
// so fleets with partially failed nodes are first-class grid axes.
type MixEntry struct {
	Kind  string `json:"kind"`
	Count int    `json:"count"`
}

// mixSpecs converts the Mix entries to topology machine specs.
func (ts TopologySpec) mixSpecs() ([]topology.MachineSpec, error) {
	specs := make([]topology.MachineSpec, 0, len(ts.Mix))
	for _, e := range ts.Mix {
		kind, failed, err := topology.ParseMixKind(e.Kind)
		if err != nil {
			return nil, err
		}
		if e.Count < 1 {
			return nil, fmt.Errorf("mix entry %s:%d needs a machine count >= 1", e.Kind, e.Count)
		}
		specs = append(specs, topology.MachineSpec{Kind: kind, Count: e.Count, Failed: failed})
	}
	return specs, nil
}

// mixKey renders the mix in the canonical "minsky:2+dgx1:1" form.
func (ts TopologySpec) mixKey() string {
	parts := make([]string, len(ts.Mix))
	for i, e := range ts.Mix {
		parts[i] = fmt.Sprintf("%s:%d", e.Kind, e.Count)
	}
	return strings.Join(parts, "+")
}

// builderOrDefault returns the builder name with the empty default applied.
func (ts TopologySpec) builderOrDefault() string {
	if ts.Builder == "" {
		return topology.KindMinsky.String()
	}
	return ts.Builder
}

// Key is the compact deterministic label of the spec used in cell keys,
// CSV artifacts and diff tables: the source ("minsky",
// "mix[minsky:2+dgx1:1]", "matrix[path/to/file]"), then ":N" when the
// machine count is pinned, then the non-zero weight overrides in fixed
// field order, e.g. "dgx1:2", "minsky[socket=5]", "matrix[dgx1.matrix]:4".
func (ts TopologySpec) Key() string {
	var sb strings.Builder
	switch {
	case len(ts.Mix) > 0:
		fmt.Fprintf(&sb, "mix[%s]", ts.mixKey())
	case ts.MatrixFile != "":
		fmt.Fprintf(&sb, "matrix[%s]", ts.MatrixFile)
	default:
		sb.WriteString(ts.builderOrDefault())
	}
	if ts.Machines > 0 {
		fmt.Fprintf(&sb, ":%d", ts.Machines)
	}
	if ts.Weights != nil {
		var parts []string
		add := func(name string, v float64) {
			if v != 0 {
				parts = append(parts, fmt.Sprintf("%s=%g", name, v))
			}
		}
		add("gpupeer", ts.Weights.GPUPeer)
		add("gpulink", ts.Weights.GPULink)
		add("switch", ts.Weights.Switch)
		add("socket", ts.Weights.Socket)
		add("machine", ts.Weights.Machine)
		if len(parts) > 0 {
			sb.WriteString("[" + strings.Join(parts, ";") + "]")
		}
	}
	if ts.Domains != "" {
		fmt.Fprintf(&sb, "/domains[%s]", ts.Domains)
	}
	return sb.String()
}

// EffectiveMachines resolves the machine count of a point on this
// topology: a mix's total count, else the spec's pinned count when set,
// else the Machines-axis value.
func (ts TopologySpec) EffectiveMachines(axis int) int {
	if len(ts.Mix) > 0 {
		total := 0
		for _, e := range ts.Mix {
			total += e.Count
		}
		return total
	}
	if ts.Machines > 0 {
		return ts.Machines
	}
	return axis
}

// pinsMachines reports whether the spec fixes its own machine count and
// therefore conflicts with a grid-level Machines axis.
func (ts TopologySpec) pinsMachines() bool {
	return ts.Machines > 0 || len(ts.Mix) > 0
}

// Validate checks the spec against the builder registry, rejects
// conflicting topology sources, and — for matrix specs — requires the
// file to exist and parse, so a bad path fails before any simulation
// runs.
func (ts TopologySpec) Validate() error {
	if ts.Mix != nil && len(ts.Mix) == 0 {
		return fmt.Errorf("topology spec: mix is present but empty — omit it to use a builder")
	}
	if len(ts.Mix) > 0 {
		if ts.Builder != "" {
			return fmt.Errorf("topology spec %s: mix and builder are mutually exclusive", ts.Key())
		}
		if ts.MatrixFile != "" {
			return fmt.Errorf("topology spec %s: mix and matrix_file are mutually exclusive", ts.Key())
		}
		if ts.Machines != 0 {
			return fmt.Errorf("topology spec %s: a mix pins its own machine count; machines must be omitted", ts.Key())
		}
		if _, err := ts.mixSpecs(); err != nil {
			return fmt.Errorf("topology spec %s: %w", ts.Key(), err)
		}
	} else if ts.MatrixFile != "" {
		if ts.Builder != "" {
			return fmt.Errorf("topology spec %s: matrix_file and builder are mutually exclusive", ts.Key())
		}
		data, err := readMatrixFile(ts.matrixPath())
		if err != nil {
			return fmt.Errorf("topology spec %s: reading matrix file: %w", ts.Key(), err)
		}
		if _, err := topology.ParseMatrix(data); err != nil {
			return fmt.Errorf("topology spec %s: %w", ts.Key(), err)
		}
	} else if _, err := topology.ParseMachineKind(ts.builderOrDefault()); err != nil {
		return err
	}
	if ts.Machines < 0 {
		return fmt.Errorf("topology spec %s: machines must be >= 0, got %d", ts.Key(), ts.Machines)
	}
	if _, err := domains.Parse(ts.Domains); err != nil {
		return fmt.Errorf("topology spec %s: %w", ts.Key(), err)
	}
	if w := ts.Weights; w != nil {
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"gpu_peer", w.GPUPeer}, {"gpu_link", w.GPULink}, {"switch", w.Switch},
			{"socket", w.Socket}, {"machine", w.Machine},
		} {
			if f.v < 0 {
				return fmt.Errorf("topology spec %s: weight %s must be >= 0, got %g", ts.Key(), f.name, f.v)
			}
		}
	}
	return nil
}

// Build materializes the topology. machines is the Machines-axis value,
// overridden by the spec's own pinned count when set (a mix always pins
// its total). standalone selects the single-machine builder (no network
// root) when the effective count is <= 1 — the Table 1 / prototype
// substrate — while generated workloads always get a cluster with a
// network root, even for one machine, preserving the legacy Machines-axis
// behavior bit for bit. Mix topologies are always clusters.
func (ts TopologySpec) Build(machines int, standalone bool) (*topology.Topology, error) {
	machines = ts.EffectiveMachines(machines)
	w := topology.DefaultWeights()
	if ts.Weights != nil {
		w = *ts.Weights
	}
	switch {
	case len(ts.Mix) > 0:
		specs, err := ts.mixSpecs()
		if err != nil {
			return nil, err
		}
		return topology.HeterogeneousClusterWeights(specs, w)
	case ts.MatrixFile != "":
		data, err := readMatrixFile(ts.matrixPath())
		if err != nil {
			return nil, fmt.Errorf("sweep: topology %s: %w", ts.Key(), err)
		}
		if standalone && machines <= 1 {
			return topology.ParseMatrixWeights(data, w)
		}
		if machines < 1 {
			machines = 1
		}
		return topology.MatrixClusterWeights(data, machines, w)
	}
	kind, err := topology.ParseMachineKind(ts.builderOrDefault())
	if err != nil {
		return nil, err
	}
	if standalone && machines <= 1 {
		return topology.Machine(kind, w)
	}
	if machines < 1 {
		machines = 1
	}
	return topology.ClusterWeights(machines, kind, w), nil
}

// ListJob is one entry of a list grid's job_list: a fully resolved job in
// the form the /v1 API accepts and the event log journals, plus the one
// job option that form lacks.
type ListJob struct {
	serveapi.JobSpec
	// CommPattern selects the communication graph: "all-to-all" (the
	// default, data parallel), "ring" or "star".
	CommPattern string `json:"comm_pattern,omitempty"`
}

// Job builds the entry's scheduler job.
func (lj ListJob) Job() (*job.Job, error) {
	j, err := lj.JobSpec.Job()
	if err != nil {
		return nil, err
	}
	switch lj.CommPattern {
	case "", "all-to-all":
	case "ring":
		err = j.SetCommGraph(jobgraph.Ring(j.GPUs, j.Class().CommWeight()))
	case "star":
		err = j.SetCommGraph(jobgraph.Star(j.GPUs, j.Class().CommWeight()))
	default:
		err = fmt.Errorf("unknown comm pattern %q", lj.CommPattern)
	}
	if err != nil {
		return nil, err
	}
	return j, nil
}

// listJobs builds the job_list afresh, so no point shares a job with
// another. An error names the offending entry.
func (g Grid) listJobs() ([]*job.Job, error) {
	jobs := make([]*job.Job, len(g.JobList))
	seen := make(map[string]bool, len(g.JobList))
	for i, lj := range g.JobList {
		j, err := lj.Job()
		if err == nil && seen[lj.ID] {
			err = fmt.Errorf("duplicate id")
		}
		if err != nil {
			return nil, fmt.Errorf("job_list[%d] %q: %w", i, lj.ID, err)
		}
		seen[lj.ID] = true
		jobs[i] = j
	}
	return jobs, nil
}

// Validate checks a grid for the mistakes a hand-written spec file can
// make: empty-but-present axes, out-of-range values, unknown topology
// builders, a Machines axis that conflicts with pinned topology machine
// counts, and a job_list that is empty, misplaced or holds a bad entry.
// Axes left absent (nil) are fine — withDefaults fills them — but an
// explicitly empty axis ("machines": []) is an error, because it would
// silently expand to zero points.
func (g Grid) Validate() error {
	type axis struct {
		name  string
		isNil bool
		n     int
	}
	for _, a := range []axis{
		{"policies", g.Policies == nil, len(g.Policies)},
		{"machines", g.Machines == nil, len(g.Machines)},
		{"jobs", g.Jobs == nil, len(g.Jobs)},
		{"alphas_cc", g.AlphasCC == nil, len(g.AlphasCC)},
		{"thresholds", g.Thresholds == nil, len(g.Thresholds)},
		{"seeds", g.Seeds == nil, len(g.Seeds)},
		{"topologies", g.Topologies == nil, len(g.Topologies)},
		{"disciplines", g.Disciplines == nil, len(g.Disciplines)},
		{"domains", g.Domains == nil, len(g.Domains)},
	} {
		if !a.isNil && a.n == 0 {
			return fmt.Errorf("sweep: grid %q: axis %q is present but empty — omit it to use the default", g.Name, a.name)
		}
	}
	for _, m := range g.Machines {
		if m < 1 {
			return fmt.Errorf("sweep: grid %q: machines axis value %d must be >= 1", g.Name, m)
		}
	}
	for _, j := range g.Jobs {
		if j < 0 {
			return fmt.Errorf("sweep: grid %q: jobs axis value %d must be >= 0", g.Name, j)
		}
	}
	for _, a := range g.AlphasCC {
		if a != NoOverride && (a < 0 || a > 1) {
			return fmt.Errorf("sweep: grid %q: alphas_cc value %g must be in [0,1] (or %d for the engine default)", g.Name, a, NoOverride)
		}
	}
	for _, th := range g.Thresholds {
		if th != NoOverride && (th < 0 || th > 1) {
			return fmt.Errorf("sweep: grid %q: thresholds value %g must be in [0,1] (or %d for the engine default)", g.Name, th, NoOverride)
		}
	}
	for _, d := range g.Disciplines {
		if _, _, err := ParseDisciplineMode(d); err != nil {
			return fmt.Errorf("sweep: grid %q: %w", g.Name, err)
		}
		if d != "" && d != "fifo" && g.Engine != EngineSim {
			return fmt.Errorf("sweep: grid %q: discipline %q needs the sim engine — the prototype emulator has no priority queue", g.Name, d)
		}
	}
	if g.Source == SourceList && len(g.JobList) == 0 {
		return fmt.Errorf("sweep: grid %q: source \"list\" needs a non-empty job_list", g.Name)
	}
	if g.Source != SourceList && g.JobList != nil {
		return fmt.Errorf("sweep: grid %q: job_list needs source \"list\"", g.Name)
	}
	if _, err := g.listJobs(); err != nil {
		return fmt.Errorf("sweep: grid %q: %w", g.Name, err)
	}
	if g.PriorityShare < 0 || g.PriorityShare > 1 {
		return fmt.Errorf("sweep: grid %q: priority_share %g outside [0,1]", g.Name, g.PriorityShare)
	}
	if g.Replicas < 0 {
		return fmt.Errorf("sweep: grid %q: replicas must be >= 0, got %d", g.Name, g.Replicas)
	}
	if g.RatePerMachine < 0 {
		return fmt.Errorf("sweep: grid %q: rate_per_machine must be >= 0, got %g", g.Name, g.RatePerMachine)
	}
	if g.SampleInterval < 0 {
		return fmt.Errorf("sweep: grid %q: sample_interval must be >= 0, got %g", g.Name, g.SampleInterval)
	}
	if g.JitterStddev < 0 {
		return fmt.Errorf("sweep: grid %q: jitter_stddev must be >= 0, got %g", g.Name, g.JitterStddev)
	}
	sharded := false
	for _, d := range g.Domains {
		sp, err := domains.Parse(d)
		if err != nil {
			return fmt.Errorf("sweep: grid %q: %w", g.Name, err)
		}
		if sp.Enabled() {
			sharded = true
		}
	}
	pinned, pinnedDomains := false, false
	for _, ts := range g.Topologies {
		if err := ts.Validate(); err != nil {
			return fmt.Errorf("sweep: grid %q: %w", g.Name, err)
		}
		if ts.pinsMachines() {
			pinned = true
		}
		if ts.Domains != "" {
			pinnedDomains = true
			sharded = true
		}
	}
	if pinned && g.Machines != nil {
		return fmt.Errorf("sweep: grid %q: a topology spec pins its machine count, so the machines axis must be omitted", g.Name)
	}
	if pinnedDomains && g.Domains != nil {
		return fmt.Errorf("sweep: grid %q: a topology spec pins its domain split, so the domains axis must be omitted", g.Name)
	}
	if sharded && (g.Engine != EngineSim || g.Source != SourceGenerated) {
		return fmt.Errorf("sweep: grid %q: sharded domains need the sim engine on generated workloads", g.Name)
	}
	return nil
}

// ParseGridSpec decodes a JSON grid spec (the format documented in
// docs/sweeps.md) and validates it. Unknown fields, malformed JSON,
// unknown enum names (policies, engine, source, topology builders) and
// out-of-range axis values are all rejected with errors that name the
// offending field.
//
//lint:ignore deadcode test helper: sweep and toposweep tests parse in-memory specs through it
func ParseGridSpec(data []byte) (Grid, error) {
	g, err := decodeGridSpec(data)
	if err != nil {
		return Grid{}, err
	}
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// decodeGridSpec is the shared strict JSON decode behind ParseGridSpec
// and LoadGridSpec (which must anchor matrix_file resolution between
// decoding and validating, so it cannot reuse ParseGridSpec wholesale).
func decodeGridSpec(data []byte) (Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("sweep: invalid grid spec: %w", err)
	}
	if dec.More() {
		return Grid{}, fmt.Errorf("sweep: invalid grid spec: trailing data after the JSON object")
	}
	return g, nil
}

// LoadGridSpec reads and parses a grid spec file. When the grid has no
// name, the file path stands in so reports stay identifiable. Relative
// matrix_file paths in the spec resolve against the spec file's directory
// (falling back to the working directory), so spec files are relocatable.
func LoadGridSpec(path string) (Grid, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Grid{}, fmt.Errorf("sweep: reading grid spec: %w", err)
	}
	g, err := decodeGridSpec(data)
	if err != nil {
		return Grid{}, fmt.Errorf("%s: %w", path, err)
	}
	// Anchor matrix_file resolution before validation so the existence
	// check and the eventual Build agree on the path.
	dir := filepath.Dir(path)
	for i := range g.Topologies {
		g.Topologies[i].specDir = dir
	}
	if err := g.Validate(); err != nil {
		return Grid{}, fmt.Errorf("%s: %w", path, err)
	}
	if g.Name == "" {
		g.Name = path
	}
	return g, nil
}

// SpecJSON serializes the grid as an indented spec file — the same format
// ParseGridSpec accepts — so any named grid doubles as a template for
// ad-hoc sweeps (toposweep -list <name>).
func (g Grid) SpecJSON() ([]byte, error) {
	js, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(js, '\n'), nil
}
