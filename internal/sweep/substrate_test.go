package sweep

import (
	"bytes"
	"testing"
)

// TestSubstrateCacheSharesAcrossPoints asserts the cache hands out one
// substrate per distinct (spec, machines, standalone) key: pointer
// equality on both the topology and the profile store.
func TestSubstrateCacheSharesAcrossPoints(t *testing.T) {
	c := newSubstrateCache()
	spec := TopologySpec{Builder: "minsky"}
	t1, p1, err := c.substrate(spec, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	t2, p2, err := c.substrate(spec, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 || p1 != p2 {
		t.Fatal("identical specs must share one substrate")
	}
	t3, _, err := c.substrate(spec, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Fatal("different machine counts must not share a substrate")
	}
	if t3.NumMachines() != 5 || t1.NumMachines() != 3 {
		t.Fatalf("machines = %d/%d, want 5/3", t3.NumMachines(), t1.NumMachines())
	}
	t4, _, err := c.substrate(spec, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if t4 == t1 {
		t.Fatal("standalone and cluster builds must not share a substrate")
	}
}

// TestSubstrateCacheErrorPropagates keeps build failures per-point errors
// rather than panics or silent nils.
func TestSubstrateCacheErrorPropagates(t *testing.T) {
	c := newSubstrateCache()
	_, _, err := c.substrate(TopologySpec{MatrixFile: "no/such/file.matrix"}, 1, false)
	if err == nil {
		t.Fatal("missing matrix file must fail")
	}
	// The error is memoized, not recomputed.
	_, _, err2 := c.substrate(TopologySpec{MatrixFile: "no/such/file.matrix"}, 1, false)
	if err2 == nil {
		t.Fatal("memoized entry must keep failing")
	}
}

// TestSharedSubstrateManyWorkers hammers one shared substrate from eight
// workers — under -race (CI runs it) this is the proof that sharing one
// topology and profile store across the pool is safe, and the 1-vs-8
// byte-comparison is the proof it is deterministic. The grid is a single
// topology × many seeds, so every point hits the same cached substrate.
func TestSharedSubstrateManyWorkers(t *testing.T) {
	grid := Grid{
		Name:           "substrate-race",
		Machines:       []int{4},
		Jobs:           []int{30},
		Replicas:       4,
		BaseSeed:       11,
		RatePerMachine: 2,
	}
	rep8, err := Run(grid, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := Run(grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	js8, err := rep8.JSON()
	if err != nil {
		t.Fatal(err)
	}
	js1, err := rep1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js8) {
		t.Fatal("1-worker and 8-worker artifacts differ on a shared substrate")
	}
}
