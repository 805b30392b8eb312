package placecache

import (
	"reflect"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/job"
	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/topology"
)

func mustState(t *testing.T, mix string) *cluster.State {
	t.Helper()
	specs, err := topology.ParseMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.HeterogeneousCluster(specs)
	if err != nil {
		t.Fatal(err)
	}
	return cluster.NewState(topo)
}

func alloc(t *testing.T, st *cluster.State, id string, gpus []int, traits perfmodel.Traits) {
	t.Helper()
	if err := st.Allocate(id, gpus, 1, traits); err != nil {
		t.Fatal(err)
	}
}

func TestJobSig(t *testing.T) {
	a := job.New("a", perfmodel.AlexNet, 16, 2, 0.5, 0)
	b := job.New("b", perfmodel.AlexNet, 16, 2, 0.9, 3) // same shape, different identity/SLO/arrival
	sigA, okA := JobSig(a)
	sigB, okB := JobSig(b)
	if !okA || !okB {
		t.Fatal("default data-parallel jobs must be cacheable")
	}
	if sigA != sigB {
		t.Fatalf("identity-only differences changed the signature: %q vs %q", sigA, sigB)
	}

	// Every mapper-visible field must move the signature.
	variants := []*job.Job{
		job.New("v", perfmodel.GoogLeNet, 16, 2, 0.5, 0), // model
		job.New("v", perfmodel.AlexNet, 128, 2, 0.5, 0),  // batch class
		job.New("v", perfmodel.AlexNet, 16, 4, 0.5, 0),   // gpus
	}
	multi := job.New("v", perfmodel.AlexNet, 16, 2, 0.5, 0)
	multi.SingleNode = false
	anti := job.New("v", perfmodel.AlexNet, 16, 2, 0.5, 0)
	anti.SingleNode, anti.AntiCollocate = false, true
	mp := job.New("v", perfmodel.AlexNet, 16, 2, 0.5, 0)
	mp.Parallelism = perfmodel.ModelParallel
	variants = append(variants, multi, anti, mp)
	seen := map[string]bool{sigA: true}
	for _, v := range variants {
		sig, ok := JobSig(v)
		if !ok {
			t.Fatalf("%v: not cacheable", v)
		}
		if seen[sig] {
			t.Fatalf("variant %v collided with an earlier signature %q", v, sig)
		}
		seen[sig] = true
	}

	// A custom communication graph is invisible to the signature, so the
	// job must refuse caching outright.
	custom := job.New("c", perfmodel.AlexNet, 16, 2, 0.5, 0)
	if err := custom.SetCommGraph(jobgraph.Ring(2, 99)); err != nil {
		t.Fatal(err)
	}
	if _, ok := JobSig(custom); ok {
		t.Fatal("custom comm graph must not be cacheable")
	}
}

func TestCacheLRU(t *testing.T) {
	c := New(2)
	k := func(i byte) Key { return Key{Job: string(i), Frag: 1, Shape: "s"} }
	sc := func(u float64) Score { return Score{Utility: u, P2P: true} }
	c.Store(k(1), []int{0}, sc(0.25), false)
	c.Store(k(2), []int{1}, sc(0.5), false)
	if _, score, _, ok := c.Lookup(k(1)); !ok || score != sc(0.25) { // promotes 1 over 2
		t.Fatalf("key 1 = (%+v, %v), want hit with stored score", score, ok)
	}
	c.Store(k(3), nil, Score{}, true) // evicts 2, the LRU entry
	if _, _, _, ok := c.Lookup(k(2)); ok {
		t.Fatal("key 2 should have been evicted")
	}
	if slots, _, negative, ok := c.Lookup(k(3)); !ok || !negative || slots != nil {
		t.Fatalf("negative entry = (%v, %v, %v)", slots, negative, ok)
	}
	if _, _, _, ok := c.Lookup(k(1)); !ok {
		t.Fatal("key 1, promoted by its lookup, should have survived the eviction")
	}

	// Storing a slice then mutating the caller's copy must not reach the
	// cache, and an update-in-place must replace the payload and score.
	src := []int{4, 5}
	c.Store(k(3), src, sc(0.75), false)
	src[0] = 99
	if slots, score, negative, _ := c.Lookup(k(3)); negative || score != sc(0.75) || !reflect.DeepEqual(slots, []int{4, 5}) {
		t.Fatalf("updated entry = %v %+v (negative=%v)", slots, score, negative)
	}
}

// TestStoreAtCapacityRecycles: a full cache takes a new decision into
// the evicted entry — list element, entry and slot slice — so the store
// allocates nothing, whether the evicted or the stored entry is negative
// or not.
func TestStoreAtCapacityRecycles(t *testing.T) {
	c := New(4)
	keys := make([]Key, 64)
	for i := range keys {
		keys[i] = Key{Job: "j", Frag: uint64(i), Shape: "s"}
	}
	slots := []int{0, 1, 2, 3}
	for _, k := range keys[:4] {
		c.Store(k, slots, Score{Utility: 0.5}, false)
	}
	i := 4
	allocs := testing.AllocsPerRun(200, func() {
		k := keys[i%len(keys)]
		negative := i%3 == 0
		if negative {
			c.Store(k, nil, Score{}, true)
		} else {
			c.Store(k, slots[:1+i%4], Score{Utility: float64(i)}, false)
		}
		got, score, neg, ok := c.Lookup(k)
		if !ok || neg != negative || (negative && got != nil) || (!negative && (len(got) != 1+i%4 || score.Utility != float64(i))) {
			t.Fatalf("store %d reads back (%v, %+v, %v, %v)", i, got, score, neg, ok)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Store at capacity allocates %v objects", allocs)
	}
	// Every store over capacity evicted: only the last four keys remain.
	for n := 0; n < 8; n++ {
		_, _, _, ok := c.Lookup(keys[(i-1-n)%len(keys)])
		if want := n < 4; ok != want {
			t.Fatalf("key stored %d stores ago: present %v, want %v", n, ok, want)
		}
	}
}

// TestCacheDefaultCapacity: a non-positive capacity bounds the cache at
// defaultCapacity — one store more evicts the oldest key and only it.
func TestCacheDefaultCapacity(t *testing.T) {
	k := func(i int) Key { return Key{Job: "j", Frag: uint64(i), Shape: "s"} }
	for _, capacity := range []int{0, -1} {
		c := New(capacity)
		for i := 0; i < defaultCapacity; i++ {
			c.Store(k(i), nil, Score{}, true)
		}
		if _, _, _, ok := c.Lookup(k(0)); !ok { // promotes 0: key 1 is now the oldest
			t.Fatalf("New(%d): evicted below the default capacity", capacity)
		}
		c.Store(k(defaultCapacity), nil, Score{}, true)
		if _, _, _, ok := c.Lookup(k(1)); ok {
			t.Fatalf("New(%d): %d stores did not evict", capacity, defaultCapacity+1)
		}
		if _, _, _, ok := c.Lookup(k(0)); !ok {
			t.Fatalf("New(%d): one store over capacity evicted more than the oldest key", capacity)
		}
	}
}

// TestSingleHostKeyEquivalence: two machines of the same kind with the
// same occupancy pattern must key identically — that is the hit the
// cache lives for — while every observable difference must split keys.
func TestSingleHostKeyEquivalence(t *testing.T) {
	st := mustState(t, "minsky:3")
	topo := st.Topology()
	tr := perfmodel.Traits{Model: perfmodel.AlexNet, Class: 1, GPUs: 2, Mode: perfmodel.DataParallel}
	// Same pattern on machines 0 and 1: first two GPUs busy.
	alloc(t, st, "a", topo.GPUsOfMachine(0)[:2], tr)
	alloc(t, st, "b", topo.GPUsOfMachine(1)[:2], tr)
	k0 := SingleHostKey("sig", st, 0)
	k1 := SingleHostKey("sig", st, 1)
	if k0 != k1 {
		t.Fatalf("equivalent machines keyed apart:\n%q\n%q", k0.Shape, k1.Shape)
	}
	if k2 := SingleHostKey("sig", st, 2); k2 == k0 {
		t.Fatal("empty machine keyed as occupied machine")
	}
	if kj := SingleHostKey("other", st, 0); kj == k0 {
		t.Fatal("job signature not part of the key")
	}
}

// TestSingleHostKeyAdversarial drives the canonicalization edge cases
// of the issue: a degraded machine vs a partially allocated healthy
// one, differing resident traits, and differing free-set geometry must
// never collide.
func TestSingleHostKeyAdversarial(t *testing.T) {
	tr := perfmodel.Traits{Model: perfmodel.AlexNet, Class: 1, GPUs: 1, Mode: perfmodel.DataParallel}

	// minsky-1g (3 healthy GPUs) vs minsky with one GPU allocated: both
	// offer 3 free GPUs, but the occupied machine carries an interfering
	// tenant and different socket arithmetic.
	degraded := mustState(t, "minsky-1g:1")
	full := mustState(t, "minsky:1")
	alloc(t, full, "tenant", []int{0}, tr)
	kd := SingleHostKey("sig", degraded, 0)
	kf := SingleHostKey("sig", full, 0)
	if kd.Shape == kf.Shape {
		t.Fatal("degraded machine collided with occupied healthy machine")
	}

	// Same free set, different resident traits.
	s1 := mustState(t, "minsky:1")
	s2 := mustState(t, "minsky:1")
	alloc(t, s1, "x", []int{0, 1}, tr)
	heavy := tr
	heavy.Model = perfmodel.GoogLeNet
	alloc(t, s2, "x", []int{0, 1}, heavy)
	if SingleHostKey("sig", s1, 0).Shape == SingleHostKey("sig", s2, 0).Shape {
		t.Fatal("resident job traits not part of the shape")
	}

	// Same free count, different geometry: two free GPUs on one socket
	// vs split across sockets.
	g1 := mustState(t, "minsky:1")
	g2 := mustState(t, "minsky:1")
	topo := g1.Topology()
	sockets := topo.Sockets(0)
	a := topo.GPUsOfSocket(0, sockets[0])
	b := topo.GPUsOfSocket(0, sockets[1])
	alloc(t, g1, "x", []int{b[0], b[1]}, tr) // free = all of socket 0
	alloc(t, g2, "x", []int{a[1], b[1]}, tr) // free = one per socket
	if SingleHostKey("sig", g1, 0).Shape == SingleHostKey("sig", g2, 0).Shape {
		t.Fatal("free-set geometry not part of the shape")
	}

	// Matrix-discovered substrate with asymmetric peer links: socket 0's
	// pair is NVLink-connected, socket 1's pair only routes through the
	// system bus. Freeing one pair or the other leaves the same free
	// count, the same socket sizes and intra-socket locality — only the
	// pairwise distance differs, and the keys must still split.
	m, err := topology.ParseMatrix(`
     GPU0  GPU1  GPU2  GPU3  CPUAffinity
GPU0 X     NV2   SYS   SYS   0-7
GPU1 NV2   X     SYS   SYS   0-7
GPU2 SYS   SYS   X     SYS   8-15
GPU3 SYS   SYS   SYS   X     8-15
`)
	if err != nil {
		t.Fatal(err)
	}
	fastFree := cluster.NewState(m)
	slowFree := cluster.NewState(m)
	alloc(t, fastFree, "x", []int{2, 3}, tr) // free = NV2 pair
	alloc(t, slowFree, "x", []int{0, 1}, tr) // free = SYS pair
	if SingleHostKey("sig", fastFree, 0).Shape == SingleHostKey("sig", slowFree, 0).Shape {
		t.Fatal("matrix substrate: NV2 free pair collided with SYS free pair")
	}
}
