// Package placecache is benchmark-pinned residue: a bounded LRU from
// canonical placement-subproblem keys to mapper decisions that the
// scheduler no longer consults. Its key carried the bits of the
// cluster-wide cluster.FragSum, which every allocate and release changes,
// so it answered about one lookup in ten and was deleted from the product
// (docs/performance.md has the traffic); within a decision the candidate
// sweep's fold by cluster.State.MachineFingerprint is the memo. The frozen
// cmd/topoperf still compiles against the eight exported names below —
// its placecache.lookup_ns probe times a Lookup — and is their only user
// (docs/performance.md, "The frozen benchmark contract"):
// internal/lint/layering bars every product package from importing this
// one, and the PR that unfreezes the benchmark deletes it (ROADMAP, "The
// frozen benchmark's residue").
package placecache

import (
	"container/list"
	"fmt"
	"math"
	"sync"

	"gputopo/internal/cluster"
	"gputopo/internal/job"
	"gputopo/internal/jobgraph"
)

// Key canonically identifies one placement subproblem. The frozen
// cmd/topoperf is its only user.
type Key struct {
	// Job is the job signature from JobSig: every job field the mapper
	// reads, excluding identity.
	Job string
	// Frag pins the global fragmentation context: the raw bits of the
	// state's Eq. 5 numerator (cluster.FragSum). The ω_d utility term
	// reads the global sum, so two otherwise-equal machines score
	// differently when the rest of the cluster differs.
	Frag uint64
	// Shape is the canonical shape of the candidate set: the machine's
	// fingerprint.
	Shape string
}

// JobSig returns the canonical signature of every job field a placement
// evaluation reads, and whether the job is cacheable at all; the frozen
// cmd/topoperf is its only user. Jobs with a custom communication graph
// (SetCommGraph) are not cacheable: the graph's edge weights feed the
// comm-cost term but are not summarized by any job field, so the
// signature cannot cover them. The default data-parallel graph is fully
// determined by (GPUs, batch class) and is process-wide shared, making
// the check a pointer comparison.
//
// BatchSize is deliberately absent: the mapper reads it only through
// Class(). MinUtility and Priority are absent because they gate what
// happens *after* placement (postponement, preemption), never the
// placement itself.
func JobSig(j *job.Job) (string, bool) {
	if j.CommGraph() != jobgraph.SharedAllToAll(j.GPUs, j.Class().CommWeight()) {
		return "", false
	}
	return fmt.Sprintf("g%d.m%d.c%d.p%d.a%t.s%t",
		j.GPUs, int(j.Model), int(j.Class()), int(j.Parallelism),
		j.AntiCollocate, j.SingleNode), true
}

// SingleHostKey builds the key for placing the job onto the free GPUs
// of machine m. The frozen cmd/topoperf is its only user.
func SingleHostKey(sig string, st *cluster.State, m int) Key {
	return Key{
		Job:   sig,
		Frag:  math.Float64bits(st.FragSum()),
		Shape: st.MachineFingerprint(m),
	}
}

// Score carries the scored quality terms of a cached placement — every
// field of the mapper's Placement except the GPU positions themselves.
// The frozen cmd/topoperf is its only user.
type Score struct {
	Utility       float64
	CommCost      float64
	Interference  float64
	Fragmentation float64
	P2P           bool
	BusDemand     float64
}

type entry struct {
	key      Key
	slots    []int
	score    Score
	negative bool
}

// Cache is a bounded LRU from subproblem keys to slot decisions, safe
// for concurrent use. The frozen cmd/topoperf is its only user.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[Key]*list.Element
}

// defaultCapacity bounds the LRU when New is given a non-positive
// capacity.
const defaultCapacity = 4096

// New returns a cache bounded to capacity entries (defaultCapacity when
// capacity <= 0). The frozen cmd/topoperf is its only user.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[Key]*list.Element, capacity),
	}
}

// Lookup returns the cached decision for k: the slot indices and scored
// terms of the placement, or negative=true (and nil slots) for a
// remembered deterministic infeasibility. The returned slice is the
// entry's own: it must not be mutated, and it is only valid until the
// next Store, which may recycle the entry. The frozen cmd/topoperf is
// its only user.
func (c *Cache) Lookup(k Key) (slots []int, score Score, negative, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[k]
	if !found {
		return nil, Score{}, false, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	if e.negative {
		return nil, e.score, true, true
	}
	return e.slots, e.score, false, true
}

// Store records the decision for k, copying slots. negative marks a
// deterministic placement failure (e.g. anti-collocation machine
// shortage) so the failure is replayed without re-running the mapper.
// At capacity the least recently used entry is recycled in place — its
// list element, entry and slot slice take the new decision — so a full
// cache stores without allocating. The frozen cmd/topoperf is its only
// user.
func (c *Cache) Store(k Key, slots []int, score Score, negative bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[k]
	switch {
	case found:
	case c.ll.Len() >= c.cap:
		el = c.ll.Back()
		delete(c.items, el.Value.(*entry).key)
		c.items[k] = el
	default:
		c.items[k] = c.ll.PushFront(&entry{key: k, slots: append([]int(nil), slots...), score: score, negative: negative})
		return
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	e.key = k
	e.slots = append(e.slots[:0], slots...)
	e.score = score
	e.negative = negative
}
