package main

import (
	"os"
	"path/filepath"
	"testing"

	"gputopo/internal/topology"
)

func TestRunBuilders(t *testing.T) {
	for _, spec := range []string{"minsky", "dgx1", "pcie", "minsky:1"} {
		if err := run(spec, true); err != nil {
			t.Fatalf("run(%q): %v", spec, err)
		}
	}
	if err := run("minsky:2", false); err != nil {
		t.Fatalf("run(minsky:2): %v", err)
	}
	// The connectivity matrix is single-machine format; a cluster must
	// refuse it rather than render misleading SYS-everywhere output.
	if err := run("minsky:2", true); err == nil {
		t.Fatal("-matrix on a cluster did not error")
	}
	if err := run("no-such-topo", false); err == nil {
		t.Fatal("unknown topology did not error")
	}
	if err := run("minsky:4/domains[hash:2]", false); err == nil {
		t.Fatal("a domain split did not error")
	}
}

func TestRunMix(t *testing.T) {
	if err := run("mix[minsky:2+dgx1:1]", false); err != nil {
		t.Fatal(err)
	}
	if err := run("mix[bogus:1]", false); err == nil {
		t.Fatal("bad mix did not error")
	}
}

func TestRunParse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.matrix")
	if err := os.WriteFile(path, []byte(topology.Power8Minsky().RenderMatrix()), 0o644); err != nil {
		t.Fatal(err)
	}
	// Single parsed machine and a stamped 3-machine cluster.
	if err := run("matrix["+path+"]", false); err != nil {
		t.Fatal(err)
	}
	if err := run("matrix["+path+"]:3", false); err != nil {
		t.Fatal(err)
	}
	if err := run("matrix["+filepath.Join(t.TempDir(), "absent")+"]", false); err == nil {
		t.Fatal("missing matrix file did not error")
	}
}
