// Package heap is the binary min-heap behind the module's priority
// queues: the simulators' future-event list, the wake-up index's parked
// buckets, the TOPO-AWARE class sweep and topology Build's shortest-path
// search. A heap is a plain slice ordered by the less function each call
// takes, so items are stored unboxed and a nil slice is an empty heap.
//
// Every function compares and swaps exactly as container/heap does with
// the same Less, so items the order does not separate come out in the
// order that package would give: Build's search breaks equal-distance
// ties by pop order, and that order is part of its result.
package heap

// Push adds x to the heap h and returns the grown heap.
func Push[T any](h []T, x T, less func(a, b *T) bool) []T {
	h = append(h, x)
	up(h, len(h)-1, less)
	return h
}

// Pop removes the least item of the non-empty heap h and returns the
// shrunk heap and that item.
func Pop[T any](h []T, less func(a, b *T) bool) ([]T, T) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	down(h, 0, n, less)
	return cut(h)
}

// Remove removes the item at index i of the heap h and returns the
// shrunk heap and that item.
func Remove[T any](h []T, i int, less func(a, b *T) bool) ([]T, T) {
	n := len(h) - 1
	if n != i {
		h[i], h[n] = h[n], h[i]
		if !down(h, i, n, less) {
			up(h, i, less)
		}
	}
	return cut(h)
}

// Init orders the items of h into a heap in O(len(h)).
func Init[T any](h []T, less func(a, b *T) bool) {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		down(h, i, n, less)
	}
}

// cut removes and returns h's last item, zeroing its slot so the backing
// array keeps nothing it points to alive.
func cut[T any](h []T) ([]T, T) {
	n := len(h) - 1
	x := h[n]
	var zero T
	h[n] = zero
	return h[:n], x
}

// up moves h[j] toward the root while it is less than its parent.
func up[T any](h []T, j int, less func(a, b *T) bool) {
	for j > 0 {
		i := (j - 1) / 2
		if !less(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down moves h[i0] away from the root, within h[:n], while a child is
// less than it; the right child is taken only when strictly less than
// the left. It reports whether the item moved.
func down[T any](h []T, i0, n int, less func(a, b *T) bool) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && less(&h[r], &h[j]) {
			j = r
		}
		if !less(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}
