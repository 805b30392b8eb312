package sweep

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_<name>.json from this run")

// A sweepGolden is one recorded artifact, testdata/golden_<name>.json, and
// the grid that records it: the registered grid <name> at seed 42
// (toposweep's default -seed), or the spec file under examples/sweeps
// when spec is set.
type sweepGolden struct{ name, spec string }

// sweepGoldens is every recorded sweep artifact.
var sweepGoldens = []sweepGolden{
	{name: "smoke"},
	{name: "hetero"},
	{name: "priority"},
	{name: "sharded"},
	{name: "topology"},
	{name: "scenario1"},
	{name: "alpha"},
	{name: "threshold"},
	{name: "contended_preempt", spec: "contended_preempt.json"},
	// One contended_queue.json point: the one of its 24 whose makespan
	// moves when simultaneous events of one kind pop in reverse push order.
	{name: "event_tie_order", spec: "event_tie_order.json"},
	// Two identical jobs start together and tie at their finish: the one
	// that arrived first is re-armed when the second joins its machine, so
	// it pops second. Its makespan moves when a re-armed finish event keeps
	// the place it was first queued at.
	{name: "arm_tie_order", spec: "arm_tie_order.json"},
}

// TestSweepGoldens holds every recorded sweep artifact byte for byte. Each
// grid runs on one worker and on eight; the two serializations must be
// identical (the engine's determinism guarantee) and equal the golden.
// Sweeps are deterministic, so there is no tolerance: any difference is a
// behaviour change. Re-record with
// `go test ./internal/sweep -run TestSweepGoldens -update` only when the
// change is meant, and say so in the commit.
func TestSweepGoldens(t *testing.T) {
	committed, err := filepath.Glob(filepath.Join("testdata", "golden_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		if !slices.ContainsFunc(sweepGoldens, func(gc sweepGolden) bool { return goldenPath(gc.name) == path }) {
			t.Errorf("%s is not in sweepGoldens: nothing compares it", path)
		}
	}
	for _, gc := range sweepGoldens {
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			g, err := gc.grid()
			if err != nil {
				t.Fatal(err)
			}
			var got [2][]byte
			for i, workers := range []int{1, 8} {
				rep, err := Run(g, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got[i], err = rep.JSON(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got[1], got[0]) {
				t.Fatalf("8 workers serialize differently from 1: %s", firstDiff(got[1], got[0]))
			}
			path := goldenPath(gc.name)
			if *update {
				if err := os.WriteFile(path, got[0], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[0], want) {
				t.Fatalf("the artifact differs from %s: %s", path, firstDiff(got[0], want))
			}
		})
	}
}

func (gc sweepGolden) grid() (Grid, error) {
	if gc.spec != "" {
		return LoadGridSpec(filepath.Join("..", "..", "examples", "sweeps", gc.spec))
	}
	return Named(gc.name, 42)
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_"+name+".json")
}

// firstDiff names the first line on which two artifacts differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got:  %s\n want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("one is a prefix of the other: %d vs %d lines", len(g), len(w))
}

// TestGoldenGridsCoverTheirAxes holds two grids to what their goldens are
// kept for: every hetero topology is a machine mix, and the sharded grid
// crosses the single-core engine with every partition strategy.
func TestGoldenGridsCoverTheirAxes(t *testing.T) {
	hetero, err := Named("hetero", 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range hetero.Topologies {
		if len(ts.Mix) == 0 {
			t.Errorf("hetero topology %s is not a machine mix", ts.Key())
		}
	}
	sharded, err := Named("sharded", 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, dom := range []string{"", "hash:4", "block:4", "kind"} {
		if !slices.Contains(sharded.Domains, dom) {
			t.Errorf("sharded grid's domains %q lack %q", sharded.Domains, dom)
		}
	}
}
