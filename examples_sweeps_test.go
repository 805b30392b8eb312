package gputopo

import (
	"bytes"
	"path/filepath"
	"testing"

	"gputopo/internal/sweep"
)

// TestExampleGridSpecsLoad validates every shipped grid spec in
// examples/sweeps/ through the same LoadGridSpec path toposweep uses, so
// a spec-format change (or a broken matrix_file reference — paths resolve
// against the repository root, which is also this test's working
// directory) cannot silently rot the examples the docs point at.
func TestExampleGridSpecsLoad(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("examples", "sweeps", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no example grid specs found under examples/sweeps/")
	}
	for _, path := range specs {
		g, err := sweep.LoadGridSpec(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(g.Points()) == 0 {
			t.Errorf("%s: grid expands to zero points", path)
		}
	}
}

// TestExampleGridSpecsDeterministic runs the two example specs
// docs/sweeps.md walks through on one worker and on eight: the artifacts
// must be byte-identical, the discovered-matrix substrate of hetero.json
// included (its matrix_file resolves only from the repository root).
func TestExampleGridSpecsDeterministic(t *testing.T) {
	for _, name := range []string{"topology-ablation.json", "hetero.json"} {
		t.Run(name, func(t *testing.T) {
			g, err := sweep.LoadGridSpec(filepath.Join("examples", "sweeps", name))
			if err != nil {
				t.Fatal(err)
			}
			var got [2][]byte
			for i, workers := range []int{1, 8} {
				rep, err := sweep.Run(g, sweep.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got[i], err = rep.JSON(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got[0], got[1]) {
				t.Fatalf("8 workers serialize %s differently from 1 (%d vs %d bytes)", name, len(got[1]), len(got[0]))
			}
		})
	}
}
