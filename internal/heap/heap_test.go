package heap

import (
	std "container/heap"
	"math/rand"
	"slices"
	"testing"
)

// item is a test item: few distinct keys, so most comparisons meet ties,
// and a unique id that tells tied items apart.
type item struct{ key, id int }

func less(a, b *item) bool { return a.key < b.key }

// ref is the oracle: a container/heap over the same items and order.
type ref []item

func (r ref) Len() int           { return len(r) }
func (r ref) Less(i, j int) bool { return less(&r[i], &r[j]) }
func (r ref) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }
func (r *ref) Push(x any)        { *r = append(*r, x.(item)) }
func (r *ref) Pop() any {
	old := *r
	x := old[len(old)-1]
	*r = old[:len(old)-1]
	return x
}

// replay applies an operation stream to a heap and to container/heap side
// by side and fails on the first difference in what an operation returns
// or in the order of the items left. Each pair of bytes is one operation:
// the first picks push, pop or remove, the second the pushed key (one of
// four) or the removed index.
func replay(t *testing.T, ops []byte) {
	t.Helper()
	var h []item
	var r ref
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k]%3, int(ops[k+1])
		var got, want item
		switch {
		case op == 0 || len(h) == 0:
			x := item{key: arg % 4, id: k}
			h = Push(h, x, less)
			std.Push(&r, x)
		case op == 1:
			h, got = Pop(h, less)
			want = std.Pop(&r).(item)
		default:
			i := arg % len(h)
			h, got = Remove(h, i, less)
			want = std.Remove(&r, i).(item)
		}
		if got != want {
			t.Fatalf("operation %d: got %+v, container/heap %+v", k/2, got, want)
		}
		if !slices.Equal(h, r) {
			t.Fatalf("operation %d: heap %v, container/heap %v", k/2, h, r)
		}
	}
	for len(h) > 0 {
		var got item
		h, got = Pop(h, less)
		if want := std.Pop(&r).(item); got != want {
			t.Fatalf("draining: got %+v, container/heap %+v", got, want)
		}
	}
}

// TestMatchesContainerHeap: over random push, pop and remove streams with
// many equal keys, every operation returns what container/heap returns and
// leaves the items in the same slots — the same sift sequence, not only a
// valid heap.
func TestMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 600)
		rng.Read(ops)
		replay(t, ops)
	}
}

// TestInitMatchesContainerHeap: Init arranges any slice as heap.Init does.
func TestInitMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		h := make([]item, n)
		for i := range h {
			h[i] = item{key: rng.Intn(4), id: i}
		}
		r := ref(slices.Clone(h))
		Init(h, less)
		std.Init(&r)
		if !slices.Equal(h, r) {
			t.Fatalf("n=%d: Init %v, container/heap %v", n, h, r)
		}
	}
}

// TestPushPopAllocatesNothing: once the slice has room, a push and a pop
// allocate nothing — items are never boxed.
func TestPushPopAllocatesNothing(t *testing.T) {
	h := make([]item, 0, 64)
	for i := 0; i < 63; i++ {
		h = Push(h, item{key: i % 5, id: i}, less)
	}
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		n++
		h = Push(h, item{key: n % 7, id: n}, less)
		h, _ = Pop(h, less)
	})
	if allocs != 0 {
		t.Fatalf("push+pop allocates %v objects, want 0", allocs)
	}
}

// FuzzHeap checks fuzzed operation streams against container/heap.
func FuzzHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 3, 2, 1, 1, 0})
	// Keys 0, 1, 1, 3, then a pop: the 3 sifts down between two equal
	// children and must go left.
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 3, 1, 0})
	f.Fuzz(replay)
}

// BenchmarkHeap is a push and a pop on a heap of 1024 items.
func BenchmarkHeap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := make([]item, 0, 1025)
	for i := 0; i < 1024; i++ {
		h = Push(h, item{key: rng.Intn(1 << 20), id: i}, less)
	}
	b.ReportAllocs()
	for b.Loop() {
		h = Push(h, item{key: rng.Intn(1 << 20)}, less)
		h, _ = Pop(h, less)
	}
}
