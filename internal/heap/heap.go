// Package heap is the binary min-heap behind the module's priority
// queues: the simulators' finish events, the wake-up index's parked
// buckets, the TOPO-AWARE class sweep and topology Build's shortest-path
// search. A heap is a plain slice of items ordered by their keys, so
// items are stored unboxed, every comparison compiles in place, and a nil
// slice is an empty heap.
//
// Every function moves items exactly as container/heap does under the
// same order, so items whose keys are equal come out in the order that
// package would give: Build's search breaks equal-distance ties by pop
// order, and that order is part of its result.
//
// An item may carry a slot: every function that moves items also writes
// each moved item's index to at[item.Slot], and -1 there for the item it
// removes, so a caller can find, move or remove the item it filed under a
// slot. A nil at tracks nothing.
package heap

// Key is an item's place in the order: keys compare by A, then B, then C.
type Key struct {
	A, B float64
	C    uint64
}

// Less reports whether k orders strictly before o.
func (k *Key) Less(o *Key) bool {
	if k.A != o.A {
		return k.A < o.A
	}
	if k.B != o.B {
		return k.B < o.B
	}
	return k.C < o.C
}

// Item is one heap entry: its key, the slot at tracks it under, and the
// value it carries.
type Item[V any] struct {
	Key
	Slot int32
	Val  V
}

// Push adds x to the heap h and returns the grown heap.
func Push[V any](h []Item[V], x Item[V], at []int32) []Item[V] {
	h = append(h, x)
	if at != nil {
		at[x.Slot] = int32(len(h) - 1)
	}
	up(h, len(h)-1, at)
	return h
}

// Pop removes the least item of the non-empty heap h and returns the
// shrunk heap and that item.
func Pop[V any](h []Item[V], at []int32) ([]Item[V], Item[V]) {
	n := len(h) - 1
	swap(h, 0, n, at)
	down(h, 0, n, at)
	return cut(h, at)
}

// Remove removes the item at index i of the heap h and returns the
// shrunk heap and that item.
func Remove[V any](h []Item[V], i int, at []int32) ([]Item[V], Item[V]) {
	n := len(h) - 1
	if n != i {
		swap(h, i, n, at)
		if !down(h, i, n, at) {
			up(h, i, at)
		}
	}
	return cut(h, at)
}

// Fix restores the heap order after the key of the item at index i
// changed.
func Fix[V any](h []Item[V], i int, at []int32) {
	if !down(h, i, len(h), at) {
		up(h, i, at)
	}
}

// Init orders the items of h into a heap in O(len(h)).
func Init[V any](h []Item[V], at []int32) {
	if at != nil {
		for i := range h {
			at[h[i].Slot] = int32(i)
		}
	}
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		down(h, i, n, at)
	}
}

// cut removes and returns h's last item, zeroing its slot so the backing
// array keeps nothing it points to alive.
func cut[V any](h []Item[V], at []int32) ([]Item[V], Item[V]) {
	n := len(h) - 1
	x := h[n]
	h[n] = Item[V]{}
	if at != nil {
		at[x.Slot] = -1
	}
	return h[:n], x
}

// swap exchanges h[i] and h[j].
func swap[V any](h []Item[V], i, j int, at []int32) {
	h[i], h[j] = h[j], h[i]
	if at != nil {
		at[h[i].Slot], at[h[j].Slot] = int32(i), int32(j)
	}
}

// up moves h[j] toward the root while it is less than its parent.
func up[V any](h []Item[V], j int, at []int32) {
	for j > 0 {
		i := (j - 1) / 2
		if !h[j].Less(&h[i].Key) {
			break
		}
		swap(h, i, j, at)
		j = i
	}
}

// down moves h[i0] away from the root, within h[:n], while a child is
// less than it; the right child is taken only when strictly less than
// the left. It reports whether the item moved.
func down[V any](h []Item[V], i0, n int, at []int32) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].Less(&h[j].Key) {
			j = r
		}
		if !h[j].Less(&h[i].Key) {
			break
		}
		swap(h, i, j, at)
		i = j
	}
	return i > i0
}
