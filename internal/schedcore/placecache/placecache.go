// Package placecache memoizes placement decisions across equivalent
// subproblems. The paper's Eq. 1 mapper is a pure function of (job,
// cluster state, candidate GPU set), and a scheduler meets the same
// subproblem again whenever a decision finds the state as an earlier one
// left it — a postponed job re-asked, a victim-set trial, a release
// followed by an identical submit. (Equivalent machines inside one
// decision never reach the cache: the candidate sweep folds them by
// fingerprint first.) The cache keys each evaluation by a canonical
// fingerprint of everything the mapper can observe and stores the
// decision as *slot indices* into the candidate list plus the scored
// quality terms. A hit replays the slots onto the concrete machine's
// free GPUs (the relabeling map) and rebuilds the placement from the
// stored terms; because every term is itself a pure function of the
// key, a hit is bit-for-bit identical to the miss it replays.
//
// Keys are total by construction: two subproblems with equal keys
// present the DRB recursion, the utility terms (communication cost,
// interference prediction, fragmentation) and the deterministic error
// paths with identical inputs up to an order-preserving relabeling of
// the candidate GPUs, so the mapper makes the same choice expressed in
// the same slot positions. See docs/performance.md for the full key
// construction and docs/architecture.md for the invariant.
package placecache

import (
	"container/list"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"gputopo/internal/cluster"
	"gputopo/internal/job"
	"gputopo/internal/jobgraph"
)

// Key canonically identifies one placement subproblem.
type Key struct {
	// Job is the job signature from JobSig: every job field the mapper
	// reads, excluding identity.
	Job string
	// Frag pins the global fragmentation context: the raw bits of the
	// state's Eq. 5 numerator (cluster.FragSum). The ω_d utility term
	// reads the global sum, so two otherwise-equal machines score
	// differently when the rest of the cluster differs.
	Frag uint64
	// Shape is the canonical shape of the candidate set: one machine
	// fingerprint for single-node placements, an ordered host sequence
	// with cross-host job linkage for multi-node ones.
	Shape string
}

// JobSig returns the canonical signature of every job field a placement
// evaluation reads, and whether the job is cacheable at all. Jobs with
// a custom communication graph (SetCommGraph) are not cacheable: the
// graph's edge weights feed the comm-cost term but are not summarized
// by any job field, so the signature cannot cover them. The default
// data-parallel graph is fully determined by (GPUs, batch class) and is
// process-wide shared, making the check a pointer comparison.
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
// of machine m.
func SingleHostKey(sig string, st *cluster.State, m int) Key {
	return Key{
		Job:   sig,
		Frag:  math.Float64bits(st.FragSum()),
		Shape: st.MachineFingerprint(m),
	}
}

// MultiHostKey builds the key for placing the job onto the concatenated
// free GPUs of hosts. The shape is the *ordered* host sequence — the
// mapper's bipartition numbers its vertices by candidate order, so host
// order is part of the subproblem — with each host's fingerprint
// followed by a cross-host linkage trailer: per co-resident job (in the
// same sorted order the host fingerprint lists its blocks) either "n,"
// for a job not seen on an earlier host, or "b<h>.<b>," naming the
// host and block index of its first occurrence. The linkage is what
// predictInterference observes: a job spanning two candidate hosts
// contributes once, at its first host, so two states are equivalent
// only if their spanning patterns match.
func MultiHostKey(sig string, st *cluster.State, hosts []int) Key {
	var sb strings.Builder
	firstSeen := make(map[string][2]int) // job ID -> (host idx, block idx); lookup-only
	for hi, m := range hosts {
		sb.WriteByte('#')
		sb.WriteString(st.MachineFingerprint(m))
		sb.WriteByte('~')
		for bi, id := range st.JobsOnMachine(m) {
			if at, ok := firstSeen[id]; ok {
				fmt.Fprintf(&sb, "b%d.%d,", at[0], at[1])
			} else {
				firstSeen[id] = [2]int{hi, bi}
				sb.WriteString("n,")
			}
		}
	}
	return Key{
		Job:   sig,
		Frag:  math.Float64bits(st.FragSum()),
		Shape: sb.String(),
	}
}

// SlotsOf appends to dst the slot indices of a placement's GPU positions
// within the ascending candidate list — the relabeling-independent
// payload the cache stores — and returns the extended slice. Returns
// false if any GPU is not a candidate (a mapper bug; callers skip the
// decision rather than corrupt the cache).
func SlotsOf(dst, candidates, gpus []int) ([]int, bool) {
	for _, g := range gpus {
		idx, ok := slices.BinarySearch(candidates, g)
		if !ok {
			return dst, false
		}
		dst = append(dst, idx)
	}
	return dst, true
}

// DefaultCapacity bounds the LRU when New is given a non-positive
// capacity. The key carries the bits of the cluster-wide FragSum, so an
// entry can only be asked for again while the state stands still
// (TOPO-AWARE-P re-asks, victim-set trials); 4096 entries is a few
// decisions' worth of classes on a scenario-2 fleet — docs/performance.md
// has the measured traffic.
const DefaultCapacity = 4096

// Stats counts cache traffic since creation.
type Stats struct {
	Hits      int
	Misses    int
	Evictions int
}

// Score carries the scored quality terms of a cached placement — every
// field of the mapper's Placement except the GPU positions themselves.
// Each term is a pure function of the cache key: communication cost and
// P2P reachability follow from the static machine shape and the chosen
// slots, interference from the co-resident job traits and socket
// localities the shape fingerprint encodes, fragmentation from the
// key's global FragSum plus the machine-local free shape, and bus
// demand from the job and the chosen slots alone. A hit therefore
// rebuilds the full Placement without re-running the utility terms.
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

// Cache is a bounded LRU from subproblem keys to slot decisions. Safe
// for concurrent use; the sharded scheduler shares one cache per
// domain between the placement path and the preemption victim search.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[Key]*list.Element
	stats Stats
}

// New returns a cache bounded to capacity entries (DefaultCapacity when
// capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
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
// next Store, which may recycle the entry.
func (c *Cache) Lookup(k Key) (slots []int, score Score, negative, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[k]
	if !found {
		c.stats.Misses++
		return nil, Score{}, false, false
	}
	c.stats.Hits++
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
// cache stores without allocating.
func (c *Cache) Store(k Key, slots []int, score Score, negative bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[k]
	switch {
	case found:
	case c.ll.Len() >= c.cap:
		el = c.ll.Back()
		delete(c.items, el.Value.(*entry).key)
		c.stats.Evictions++
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

// Len returns the number of cached decisions.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
