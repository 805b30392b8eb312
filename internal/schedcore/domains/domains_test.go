package domains

import (
	"os"
	"reflect"
	"testing"

	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/topology"
)

func TestParseAndKey(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Spec
		key  string
	}{
		{"", Spec{}, ""},
		{"hash:4", Spec{Strategy: "hash", N: 4}, "hash:4"},
		{"block:2", Spec{Strategy: "block", N: 2}, "block:2"},
		{"kind", Spec{Strategy: "kind"}, "kind"},
		{" hash:1 ", Spec{Strategy: "hash", N: 1}, "hash:1"},
	} {
		sp, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if sp != tc.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", tc.in, sp, tc.want)
		}
		if sp.Key() != tc.key {
			t.Fatalf("Parse(%q).Key() = %q, want %q", tc.in, sp.Key(), tc.key)
		}
	}
	for _, bad := range []string{"hash", "hash:0", "hash:-1", "hash:x", "kind:2", "rack:3", ":4"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

func TestPartitionStrategies(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		n     int
		kinds []string
		want  [][]int
	}{
		{"hash:2", 5, nil, [][]int{{0, 2, 4}, {1, 3}}},
		{"hash:4", 2, nil, [][]int{{0}, {1}}}, // empty domains dropped
		{"block:2", 5, nil, [][]int{{0, 1, 2}, {3, 4}}},
		{"block:3", 6, nil, [][]int{{0, 1}, {2, 3}, {4, 5}}},
		{"kind", 3, nil, [][]int{{0, 1, 2}}},
		{"kind", 4, []string{"a", "b", "a", "c"}, [][]int{{0, 2}, {1}, {3}}},
		{"", 3, nil, [][]int{{0, 1, 2}}},
	} {
		sp, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		got, err := sp.Partition(tc.n, tc.kinds)
		if err != nil {
			t.Fatalf("Partition(%q, %d): %v", tc.spec, tc.n, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("Partition(%q, %d) = %v, want %v", tc.spec, tc.n, got, tc.want)
		}
	}
	if _, err := (Spec{Strategy: "hash", N: 2}).Partition(0, nil); err == nil {
		t.Fatal("partitioning zero machines accepted")
	}
	if _, err := (Spec{Strategy: "kind"}).Partition(3, []string{"a"}); err == nil {
		t.Fatal("mismatched kind labels accepted")
	}
}

func mkJob(id string, gpus int, singleNode, anti bool) *job.Job {
	j := job.New(id, perfmodel.AlexNet, 1, gpus, 0, 0)
	j.SingleNode = singleNode
	j.AntiCollocate = anti
	return j
}

func TestCapacityAdmits(t *testing.T) {
	c := Capacity{GPUs: 8, Machines: 2, MaxMachineGPUs: 4}
	for _, tc := range []struct {
		j    *job.Job
		want bool
	}{
		{mkJob("a", 4, true, false), true},
		{mkJob("b", 5, true, false), false},  // no machine that big
		{mkJob("c", 5, false, false), true},  // multi-node spans machines
		{mkJob("d", 9, false, false), false}, // exceeds the domain
		{mkJob("e", 2, false, true), true},   // one machine per task
		{mkJob("f", 3, false, true), false},  // needs 3 machines, has 2
	} {
		if got := c.Admits(tc.j); got != tc.want {
			t.Fatalf("Admits(%s) = %v, want %v", tc.j.ID, got, tc.want)
		}
	}
}

func TestCapacityOf(t *testing.T) {
	topo, err := topology.HeterogeneousCluster([]topology.MachineSpec{
		{Kind: topology.KindMinsky, Count: 1},
		{Kind: topology.KindDGX1, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := CapacityOf(topo)
	if c.Machines != 2 || c.GPUs != 12 || c.MaxMachineGPUs != 8 {
		t.Fatalf("CapacityOf(minsky+dgx1) = %+v", c)
	}
}

func TestRouteStaticBalancesAndSpills(t *testing.T) {
	caps := []Capacity{
		{GPUs: 4, Machines: 1, MaxMachineGPUs: 4},
		{GPUs: 8, Machines: 1, MaxMachineGPUs: 8},
	}
	jobs := []*job.Job{
		mkJob("j0", 2, true, false), // relative load 0.5 vs 0.25 -> domain 1
		mkJob("j1", 2, true, false), // 0.5 vs 0.5 -> tie, lowest index 0
		mkJob("j2", 6, true, false), // only domain 1 admits
		mkJob("j3", 2, true, false), // 1.0 vs 1.25 -> domain 0
	}
	assign, err := RouteStatic(caps, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 0, 1, 0}; !reflect.DeepEqual(assign, want) {
		t.Fatalf("assign = %v, want %v", assign, want)
	}
	if _, err := RouteStatic(caps, []*job.Job{mkJob("big", 9, true, false)}); err == nil {
		t.Fatal("inadmissible job routed")
	}
	if _, err := RouteStatic(nil, nil); err == nil {
		t.Fatal("routing with no domains accepted")
	}
}

func TestRouterPrefersSeatsNowAndSpills(t *testing.T) {
	caps := []Capacity{
		{GPUs: 8, Machines: 2, MaxMachineGPUs: 4},
		{GPUs: 8, Machines: 2, MaxMachineGPUs: 4},
	}
	free := map[int][3]int{}
	r := NewRouter(caps, func(d int) (int, int, int) { return free[d][0], free[d][1], free[d][2] })

	// Domain 0 has more free GPUs overall but no machine can seat a
	// 3-GPU single-node job; the router spills to domain 1.
	free[0] = [3]int{6, 2, 2}
	free[1] = [3]int{4, 4, 1}
	d, err := r.Route(mkJob("a", 3, true, false))
	if err != nil || d != 1 {
		t.Fatalf("Route(a) = %d, %v; want 1", d, err)
	}
	// An anti-collocated job needs one free machine per task: domain 0
	// has more free GPUs but only one machine with any, so only domain 1
	// seats a 2-GPU anti-collocate job now.
	free[0] = [3]int{5, 5, 1}
	free[1] = [3]int{3, 2, 2}
	d, err = r.Route(mkJob("ac", 2, false, true))
	if err != nil || d != 1 {
		t.Fatalf("Route(ac) = %d, %v; want 1", d, err)
	}
	// Both at their watermark: queue on the domain with the most free.
	free[0] = [3]int{2, 1, 2}
	free[1] = [3]int{1, 1, 1}
	d, err = r.Route(mkJob("b", 3, true, false))
	if err != nil || d != 0 {
		t.Fatalf("Route(b) = %d, %v; want 0", d, err)
	}
	// A domain that takes no writes (negative free count) loses the
	// spill to a full domain that does, and is still the answer when it
	// is the only one left.
	free[0] = [3]int{-1, 0, 0}
	free[1] = [3]int{0, 0, 0}
	d, err = r.Route(mkJob("ro", 1, false, false))
	if err != nil || d != 1 {
		t.Fatalf("Route(ro) = %d, %v; want 1", d, err)
	}
	free[1] = [3]int{-1, 0, 0}
	d, err = r.Route(mkJob("ro2", 1, false, false))
	if err != nil || d != 0 {
		t.Fatalf("Route(ro2) with both domains read-only = %d, %v; want 0", d, err)
	}
	// Inadmissible everywhere is an error, not a queue.
	if _, err := r.Route(mkJob("c", 5, true, false)); err == nil {
		t.Fatal("inadmissible job routed")
	}
}

// TestRouteAllocatesNothing: the router runs once per submission ahead
// of every domain's writer loop; over 16 domains with domain-varying
// occupancy (so both the seats-now and the spill arm run) no job shape
// may cost an allocation.
func TestRouteAllocatesNothing(t *testing.T) {
	caps := make([]Capacity, 16)
	for d := range caps {
		caps[d] = Capacity{GPUs: 32, Machines: 8, MaxMachineGPUs: 4}
	}
	r := NewRouter(caps, func(d int) (int, int, int) { return (d * 5) % 33, d % 5, d % 9 })
	for _, j := range []*job.Job{mkJob("r1", 1, false, false), mkJob("r2", 4, true, false), mkJob("r4", 2, false, true)} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := r.Route(j); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("Route(%s) allocates %v objects", j.ID, n)
		}
	}
}

// TestGPUMaps holds the one local→global GPU map (the sharded simulator's
// merge and the server's wire translation both read it) to what zipping
// each domain machine's GPU list against the cluster-wide topology gives —
// the topology GPUMaps itself never sees.
func TestGPUMaps(t *testing.T) {
	mix := func(s string) *topology.Topology {
		t.Helper()
		specs, err := topology.ParseMix(s)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := topology.HeterogeneousCluster(specs)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	matrix, err := os.ReadFile("../../../examples/sweeps/dgx1.matrix")
	if err != nil {
		t.Fatal(err)
	}
	stamped := func(n int) *topology.Topology {
		t.Helper()
		topo, err := topology.MatrixCluster(string(matrix), n)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	minsky := func(n int) *topology.Topology { return topology.Cluster(n, topology.KindMinsky) }

	for _, tc := range []struct {
		name     string
		global   *topology.Topology
		split    string
		kinds    []string
		local    func(group []int) *topology.Topology
		identity []bool
	}{
		{"minsky:8/hash:4", minsky(8), "hash:4", nil,
			func(g []int) *topology.Topology { return minsky(len(g)) },
			[]bool{false, false, false, false}},
		{"mix[minsky:2+dgx1:2]/kind", mix("minsky:2+dgx1:2"), "kind", []string{"minsky", "minsky", "dgx1", "dgx1"},
			func(g []int) *topology.Topology { return mix(map[int]string{0: "minsky:2", 2: "dgx1:2"}[g[0]]) },
			[]bool{true, false}},
		{"matrix_file x3/hash:2", stamped(3), "hash:2", nil,
			func(g []int) *topology.Topology { return stamped(len(g)) },
			[]bool{false, false}},
		{"minsky:3 unsplit", minsky(3), "", nil,
			func(g []int) *topology.Topology { return minsky(len(g)) },
			[]bool{true}},
	} {
		sp, err := Parse(tc.split)
		if err != nil {
			t.Fatal(err)
		}
		groups, err := sp.Partition(tc.global.NumMachines(), tc.kinds)
		if err != nil {
			t.Fatal(err)
		}
		locals := make([]*topology.Topology, len(groups))
		for d, g := range groups {
			locals[d] = tc.local(g)
		}
		maps, err := GPUMaps(locals, groups)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for d, local := range locals {
			want := make([]int, local.NumGPUs())
			for k, gm := range groups[d] {
				for i, pos := range local.GPUsOfMachine(k) {
					want[pos] = tc.global.GPUsOfMachine(gm)[i]
				}
			}
			if (maps[d] == nil) != tc.identity[d] {
				t.Fatalf("%s domain %d: nil map = %v, want identity = %v", tc.name, d, maps[d] == nil, tc.identity[d])
			}
			if got := GlobalGPUs(maps[d], seq(local.NumGPUs())); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s domain %d: map %v, zipping against the cluster topology gives %v", tc.name, d, got, want)
			}
		}
	}

	two := []*topology.Topology{minsky(2), minsky(1)}
	for name, machines := range map[string][][]int{
		"machine count differs from the topology's": {{0}, {1}},
		"global index out of range":                 {{0, 3}, {1}},
		"machine in two domains":                    {{0, 1}, {1}},
		"fewer lists than domains":                  {{0, 1, 2}},
	} {
		if _, err := GPUMaps(two, machines); err == nil {
			t.Fatalf("%s: accepted %v", name, machines)
		}
	}
}
