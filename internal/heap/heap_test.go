package heap

import (
	std "container/heap"
	"math/rand"
	"slices"
	"testing"
)

// item is a test item: its value is a unique id that tells tied items
// apart, and its slot is that id too.
type item = Item[int]

// key spreads b over the three key fields, so that keys order as b%8 does
// and most comparisons meet ties, some decided only by B or C.
func key(b int) Key {
	b %= 8
	return Key{A: float64(b >> 2), B: float64(b >> 1 & 1), C: uint64(b & 1)}
}

// ref is the oracle: a container/heap over the same items, whose Less is
// the key order.
type ref []item

func (r ref) Len() int           { return len(r) }
func (r ref) Less(i, j int) bool { return r[i].Less(&r[j].Key) }
func (r ref) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }
func (r *ref) Push(x any)        { *r = append(*r, x.(item)) }
func (r *ref) Pop() any {
	old := *r
	x := old[len(old)-1]
	*r = old[:len(old)-1]
	return x
}

// tracked fails unless at holds every item's index by its slot.
func tracked(t *testing.T, h []item, at []int32, step int) {
	t.Helper()
	for i := range h {
		if at[h[i].Slot] != int32(i) {
			t.Fatalf("operation %d: item %+v at index %d, tracked at %d", step, h[i], i, at[h[i].Slot])
		}
	}
}

// replay applies an operation stream to a heap and to container/heap side
// by side and fails on the first difference in what an operation returns,
// in the order of the items left, or in an index the heap tracks. Each
// pair of bytes is one operation: the first picks push, pop, remove or
// fix, the second the pushed key, or the index removed or fixed (and the
// fixed item's new key).
func replay(t *testing.T, ops []byte) {
	t.Helper()
	var h []item
	var r ref
	at := make([]int32, len(ops)/2+1)
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k]%4, int(ops[k+1])
		var got, want item
		removed := false
		switch {
		case op == 0 || len(h) == 0:
			x := item{Key: key(arg), Slot: int32(k / 2), Val: k / 2}
			h = Push(h, x, at)
			std.Push(&r, x)
		case op == 1:
			h, got = Pop(h, at)
			want, removed = std.Pop(&r).(item), true
		case op == 2:
			i := arg % len(h)
			h, got = Remove(h, i, at)
			want, removed = std.Remove(&r, i).(item), true
		default:
			i := arg % len(h)
			h[i].Key, r[i].Key = key(arg/len(h)), key(arg/len(h))
			Fix(h, i, at)
			std.Fix(&r, i)
		}
		if got != want {
			t.Fatalf("operation %d: got %+v, container/heap %+v", k/2, got, want)
		}
		if removed && at[got.Slot] != -1 {
			t.Fatalf("operation %d: removed %+v still tracked at %d", k/2, got, at[got.Slot])
		}
		if !slices.Equal(h, r) {
			t.Fatalf("operation %d: heap %v, container/heap %v", k/2, h, r)
		}
		tracked(t, h, at, k/2)
	}
	for len(h) > 0 {
		var got item
		h, got = Pop(h, at)
		if want := std.Pop(&r).(item); got != want {
			t.Fatalf("draining: got %+v, container/heap %+v", got, want)
		}
		tracked(t, h, at, -1)
	}
}

// TestMatchesContainerHeap: over random push, pop, remove and fix streams
// with many equal keys, every operation returns what container/heap
// returns, leaves the items in the same slots — the same sift sequence,
// not only a valid heap — and tracks every item's index.
func TestMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 600)
		rng.Read(ops)
		replay(t, ops)
	}
}

// TestInitMatchesContainerHeap: Init arranges any slice as heap.Init does
// and tracks every item's index.
func TestInitMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		h := make([]item, n)
		for i := range h {
			h[i] = item{Key: key(rng.Intn(8)), Slot: int32(i), Val: i}
		}
		r := ref(slices.Clone(h))
		at := make([]int32, n)
		Init(h, at)
		std.Init(&r)
		if !slices.Equal(h, r) {
			t.Fatalf("n=%d: Init %v, container/heap %v", n, h, r)
		}
		tracked(t, h, at, n)
		Init(h, nil) // tracks nothing, moves nothing more
		if !slices.Equal(h, r) {
			t.Fatalf("n=%d: Init of a heap moved its items", n)
		}
	}
}

// TestPushPopAllocatesNothing: once the slice has room, a push and a pop
// allocate nothing — items are never boxed — with or without tracking.
func TestPushPopAllocatesNothing(t *testing.T) {
	for _, at := range [][]int32{nil, make([]int32, 64)} {
		h := make([]item, 0, 64)
		for i := 0; i < 63; i++ {
			h = Push(h, item{Key: key(i % 5), Slot: int32(i)}, at)
		}
		n := 0
		allocs := testing.AllocsPerRun(1000, func() {
			n++
			h = Push(h, item{Key: key(n % 7), Slot: 63}, at)
			h, _ = Pop(h, at)
		})
		if allocs != 0 {
			t.Fatalf("push+pop allocates %v objects, want 0", allocs)
		}
	}
}

// FuzzHeap checks fuzzed operation streams against container/heap.
func FuzzHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 3, 2, 1, 1, 0})
	// Keys 0, 1, 1, 3, then a pop: the 3 sifts down between two equal
	// children and must go left.
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 3, 1, 0})
	// Keys 0, 2, 4, 6, then the root's key rises to 7 and sifts down.
	f.Add([]byte{0, 0, 0, 2, 0, 4, 0, 6, 3, 28})
	f.Fuzz(replay)
}

// BenchmarkHeap is a push and a pop on a heap of 1024 items.
func BenchmarkHeap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := make([]item, 0, 1025)
	for i := 0; i < 1024; i++ {
		h = Push(h, item{Key: Key{A: float64(rng.Intn(1 << 20))}, Val: i}, nil)
	}
	b.ReportAllocs()
	for b.Loop() {
		h = Push(h, item{Key: Key{A: float64(rng.Intn(1 << 20))}}, nil)
		h, _ = Pop(h, nil)
	}
}
