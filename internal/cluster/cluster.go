// Package cluster tracks the runtime allocation state of a physical
// topology: which GPUs belong to which jobs, how much of each machine's
// shared bus bandwidth is committed, and the resource-fragmentation metric
// of Eq. 5. Jobs in this system never share a GPU ("sharing here means
// different applications get different sets of GPUs", §1), so allocation is
// exclusive per GPU.
package cluster

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"

	"gputopo/internal/perfmodel"
	"gputopo/internal/topology"
)

// Allocation records the placement of one job.
type Allocation struct {
	JobID     string
	GPUs      []int   // GPU positions in the topology
	Bandwidth float64 // GB/s of shared-bus demand committed on placement
	// Traits carries the interference-relevant summary of the job so
	// later placement decisions can predict co-location slowdowns
	// against the jobs already running (§4.2).
	Traits perfmodel.Traits
}

// Resident is one row of a machine's resident table: a job holding at
// least one GPU on that machine.
type Resident struct {
	Alloc *Allocation
	// Sockets ORs topology.SocketBit over the job's GPUs on the machine:
	// a GPU there shares a socket with the job exactly when its own bit is
	// in the mask.
	Sockets uint64
	// GPUs counts the job's GPUs on the machine — what evicting it frees
	// there.
	GPUs int
}

// busCapacity is the per-machine shared-bus capacity (GB/s) used for the
// t_bw <= p_bw constraint (§4.3): two X-Bus-connected sockets.
const busCapacity = 2 * topology.BandwidthXBus

// State is the mutable allocation state over an immutable topology.
// It is not safe for concurrent mutation; the scheduler serializes access.
type State struct {
	topo    *topology.Topology
	owner   []string // GPU position -> job ID, "" when free
	allocs  map[string]*Allocation
	busUsed []float64 // machine -> committed GB/s

	// Incremental bookkeeping so large-cluster simulations avoid full
	// scans: free GPUs per machine, the Eq. 5 fragmentation sum, and
	// lazily recomputed per-machine gauges (largest free-GPU count on one
	// machine, count of machines with any free GPU).
	freeOnMachine []int
	freeTotal     int
	fragSum       float64 // Σ over sockets of freeGPUs/totalGPUs
	socketCount   int
	maxFree       int
	freeMachines  int
	maxFreeDirty  bool

	// fp[m] is machine m's placement fingerprint as an interned class id
	// in classes, for the candidate sweep's fold. Allocate/Release mark
	// only the machines whose GPUs they touch stale (same lazy style as
	// FreeMachines), and MachineClass recomputes on demand. nil until the
	// first fingerprint is asked for.
	fp      []fpSlot
	classes classTable
	fpBuf   []byte // fingerprint's formatting scratch

	// residents[m] is machine m's resident table — the jobs with a GPU
	// there, sorted by job ID: the co-runners Eq. 4 sums over, in the
	// order it sums them. A view of the owner table, rebuilt lazily and in
	// place when residentOK[m] is false; touch dirties it together with
	// fp[m].
	residents  [][]Resident
	residentOK []bool

	// trial journals the what-if Mark opened, until Rollback undoes it.
	trial trial
}

// trial is the journal of an open what-if: the gauges Mark saved, and
// what each Release inside it undid, in order.
type trial struct {
	open     bool
	released []*Allocation
	bus      []busMark

	fragSum               float64
	maxFree, freeMachines int
	maxFreeDirty          bool
}

// busMark is one machine's committed bus bandwidth before a Release
// inside a trial changed it.
type busMark struct {
	m    int
	used float64
}

// fpSlot is one machine's entry in the fingerprint table.
type fpSlot struct {
	// class is the interned id of the machine's fingerprint as last
	// computed, -1 before the first computation. A stale machine keeps
	// holding it until it recomputes.
	class int32
	// clean reports that class is still the machine's fingerprint; touch
	// clears it.
	clean bool
}

// classTable interns machine fingerprints to dense class ids. An id is
// held by every machine whose fpSlot names it, stale ones included, and
// refs counts those holders; an id nobody holds leaves ids and goes on
// free, to be handed out again before the table grows. A recompute takes
// its new id before giving up its old one, so at most NumMachines()+1 ids
// ever exist.
type classTable struct {
	ids   map[string]int32 // fingerprint -> class id, for held ids only
	names []string         // class id -> fingerprint, "" when free
	refs  []int32          // class id -> machines holding it
	free  []int32          // ids nobody holds
}

// intern returns fp's class id with one more holder, allocating only
// when fp is not interned yet: the map lookup through string(fp) does
// not copy it.
func (t *classTable) intern(fp []byte) int32 {
	id, ok := t.ids[string(fp)]
	if !ok {
		if t.ids == nil {
			t.ids = make(map[string]int32)
		}
		if n := len(t.free); n > 0 {
			id, t.free = t.free[n-1], t.free[:n-1]
		} else {
			id = int32(len(t.names))
			t.names, t.refs = append(t.names, ""), append(t.refs, 0)
		}
		t.names[id] = string(fp)
		t.ids[t.names[id]] = id
	}
	t.refs[id]++
	return id
}

// release drops one holder of id, freeing it when none is left.
func (t *classTable) release(id int32) {
	if t.refs[id]--; t.refs[id] == 0 {
		delete(t.ids, t.names[id])
		t.names[id] = ""
		t.free = append(t.free, id)
	}
}

// clone returns a copy of t sharing no buffer with it.
func (t *classTable) clone() classTable {
	return classTable{ids: maps.Clone(t.ids), names: slices.Clone(t.names), refs: slices.Clone(t.refs), free: slices.Clone(t.free)}
}

// NewState returns an empty allocation state for the topology.
func NewState(topo *topology.Topology) *State {
	s := &State{
		topo:          topo,
		owner:         make([]string, topo.NumGPUs()),
		allocs:        make(map[string]*Allocation),
		busUsed:       make([]float64, topo.NumMachines()),
		freeOnMachine: make([]int, topo.NumMachines()),
		residents:     make([][]Resident, topo.NumMachines()),
		residentOK:    make([]bool, topo.NumMachines()),
	}
	for m := 0; m < topo.NumMachines(); m++ {
		k := len(topo.GPUsOfMachine(m))
		s.freeOnMachine[m] = k
		s.freeTotal += k
		if k > s.maxFree {
			s.maxFree = k
		}
		if k > 0 {
			s.freeMachines++
		}
		s.socketCount += len(topo.Sockets(m))
	}
	s.fragSum = float64(s.socketCount) // every socket fully free
	return s
}

// Topology returns the underlying physical topology.
func (s *State) Topology() *topology.Topology { return s.topo }

// Owner returns the job occupying the GPU at pos ("" when free).
func (s *State) Owner(pos int) string { return s.owner[pos] }

// FreeGPUs returns the positions of all unallocated GPUs, ascending.
//
//lint:ignore deadcode test helper: tests in cluster, core, schedcore and the root package read free GPUs through it
func (s *State) FreeGPUs() []int {
	return s.AppendFreeGPUs(nil)
}

// AppendFreeGPUs appends the positions of all unallocated GPUs
// (ascending) to buf and returns it — the allocation-free variant of
// FreeGPUs for schedulers with a reusable buffer.
func (s *State) AppendFreeGPUs(buf []int) []int {
	for pos, o := range s.owner {
		if o == "" {
			buf = append(buf, pos)
		}
	}
	return buf
}

// FreeGPUCount returns the number of unallocated GPUs in O(1).
func (s *State) FreeGPUCount() int { return s.freeTotal }

// FreeGPUsOnMachine returns the free GPU positions of machine m.
func (s *State) FreeGPUsOnMachine(m int) []int {
	return s.AppendFreeGPUsOnMachine(nil, m)
}

// AppendFreeGPUsOnMachine appends machine m's free GPU positions
// (ascending) to buf and returns it.
func (s *State) AppendFreeGPUsOnMachine(buf []int, m int) []int {
	for _, pos := range s.topo.GPUsOfMachine(m) {
		if s.owner[pos] == "" {
			buf = append(buf, pos)
		}
	}
	return buf
}

// FreeBusBandwidth returns the uncommitted shared-bus bandwidth of machine
// m — the p_bw side of the constraint t_bw <= p_bw.
func (s *State) FreeBusBandwidth(m int) float64 {
	return busCapacity - s.busUsed[m]
}

// Allocate assigns the given GPUs to jobID, committing the stated
// shared-bus bandwidth on every machine the job touches and recording the
// job's interference traits. It fails if any GPU is already owned, the job
// already has an allocation, a position is out of range, or a trial is
// open.
func (s *State) Allocate(jobID string, gpus []int, bandwidth float64, traits perfmodel.Traits) error {
	if s.trial.open {
		return fmt.Errorf("cluster: allocating %s inside a trial", jobID)
	}
	if jobID == "" {
		return fmt.Errorf("cluster: empty job ID")
	}
	if _, exists := s.allocs[jobID]; exists {
		return fmt.Errorf("cluster: job %s already allocated", jobID)
	}
	if len(gpus) == 0 {
		return fmt.Errorf("cluster: job %s requests no GPUs", jobID)
	}
	for i, pos := range gpus {
		if pos < 0 || pos >= len(s.owner) {
			return fmt.Errorf("cluster: GPU position %d out of range", pos)
		}
		if slices.Contains(gpus[:i], pos) {
			return fmt.Errorf("cluster: duplicate GPU position %d", pos)
		}
		if s.owner[pos] != "" {
			return fmt.Errorf("cluster: GPU %d already owned by %s", pos, s.owner[pos])
		}
	}
	alloc := &Allocation{JobID: jobID, GPUs: append([]int(nil), gpus...), Bandwidth: bandwidth, Traits: traits}
	sort.Ints(alloc.GPUs)
	for i, pos := range alloc.GPUs {
		s.owner[pos] = jobID
		m := s.topo.MachineOf(pos)
		s.freeOnMachine[m]--
		s.freeTotal--
		s.fragSum -= 1 / float64(s.topo.SocketSize(pos))
		s.touch(m)
		if s.firstOnMachine(alloc.GPUs, i) {
			s.busUsed[m] += bandwidth
		}
	}
	s.allocs[jobID] = alloc
	s.maxFreeDirty = true
	return nil
}

// Release frees the allocation of jobID. Releasing an unknown job is an
// error (it indicates a simulator bookkeeping bug). Inside a trial it
// journals the allocation and each bus it uncommits, for Rollback.
func (s *State) Release(jobID string) error {
	alloc, ok := s.allocs[jobID]
	if !ok {
		return fmt.Errorf("cluster: job %s has no allocation", jobID)
	}
	for i, pos := range alloc.GPUs {
		s.owner[pos] = ""
		m := s.topo.MachineOf(pos)
		s.freeOnMachine[m]++
		s.freeTotal++
		s.fragSum += 1 / float64(s.topo.SocketSize(pos))
		s.touch(m)
		if s.firstOnMachine(alloc.GPUs, i) {
			if s.trial.open {
				s.trial.bus = append(s.trial.bus, busMark{m: m, used: s.busUsed[m]})
			}
			s.busUsed[m] -= alloc.Bandwidth
			if s.busUsed[m] < 1e-9 {
				s.busUsed[m] = 0 // drop the float residue of an emptied bus
			}
		}
	}
	delete(s.allocs, jobID)
	s.maxFreeDirty = true
	if s.trial.open {
		s.trial.released = append(s.trial.released, alloc)
	}
	return nil
}

// Mark opens a trial: a what-if the state returns from exactly. Inside it
// every reader and Release work as usual, Allocate is refused, and
// Rollback undoes the releases and closes it. Trials do not nest: Mark
// inside an open one is an error.
func (s *State) Mark() error {
	t := &s.trial
	if t.open {
		return fmt.Errorf("cluster: Mark inside an open trial")
	}
	t.open = true
	t.fragSum, t.maxFree, t.freeMachines, t.maxFreeDirty = s.fragSum, s.maxFree, s.freeMachines, s.maxFreeDirty
	return nil
}

// Rollback undoes every Release since Mark and closes the trial. The same
// *Allocation values go back into the allocation map and the owner table,
// and the free counts count back up. The float gauges — each bus Release
// uncommitted, the Eq. 5 sum — and the lazy free-machine gauges take the
// values they had at Mark, so they come back bit for bit, which
// (a − x) + x would not guarantee. The touched machines' fingerprints and
// resident rows go stale and rebuild on demand: a class id may come back
// renumbered, but two machines share one exactly when they did before.
// Without an open trial it does nothing.
func (s *State) Rollback() {
	t := &s.trial
	if !t.open {
		return
	}
	for _, a := range t.released {
		s.allocs[a.JobID] = a
		for _, pos := range a.GPUs {
			s.owner[pos] = a.JobID
			m := s.topo.MachineOf(pos)
			s.freeOnMachine[m]--
			s.freeTotal--
			s.touch(m)
		}
	}
	// Backwards: a machine two released jobs shared keeps its first,
	// pre-trial reading.
	for i := len(t.bus) - 1; i >= 0; i-- {
		s.busUsed[t.bus[i].m] = t.bus[i].used
	}
	s.fragSum, s.maxFree, s.freeMachines, s.maxFreeDirty = t.fragSum, t.maxFree, t.freeMachines, t.maxFreeDirty
	clear(t.released) // hold no allocation past the trial
	t.released, t.bus, t.open = t.released[:0], t.bus[:0], false
}

// firstOnMachine reports whether gpus[i] opens its machine's run in the
// ascending gpus: positions are machine-major, so each machine a job
// spans is one run, and its bus is committed or uncommitted once there.
func (s *State) firstOnMachine(gpus []int, i int) bool {
	return i == 0 || s.topo.MachineOf(gpus[i-1]) != s.topo.MachineOf(gpus[i])
}

// Allocation returns the allocation of jobID, or nil.
func (s *State) Allocation(jobID string) *Allocation {
	return s.allocs[jobID]
}

// Jobs returns the IDs of all allocated jobs, sorted.
func (s *State) Jobs() []string {
	out := make([]string, 0, len(s.allocs))
	for id := range s.allocs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// touch marks machine m's lazily derived views — its placement
// fingerprint and its resident table — stale. Allocate and Release call it
// for every machine whose GPUs they change.
func (s *State) touch(m int) {
	if s.fp != nil {
		s.fp[m].clean = false
	}
	s.residentOK[m] = false
}

// Residents returns machine m's resident table: one row per job with a
// GPU on m, sorted by job ID. The slice is the state's own buffer — valid
// until the state next changes (Allocate, Release, Rollback, CopyFrom into
// it), and
// not to be mutated.
func (s *State) Residents(m int) []Resident {
	if !s.residentOK[m] {
		s.rebuildResidents(m)
	}
	return s.residents[m]
}

// rebuildResidents derives machine m's resident table from the owner
// table, into the row's existing buffer.
func (s *State) rebuildResidents(m int) {
	rs := s.residents[m][:0]
	for _, pos := range s.topo.GPUsOfMachine(m) {
		id := s.owner[pos]
		if id == "" {
			continue
		}
		i := 0
		for i < len(rs) && rs[i].Alloc.JobID < id {
			i++
		}
		if i == len(rs) || rs[i].Alloc.JobID != id {
			rs = slices.Insert(rs, i, Resident{Alloc: s.allocs[id]})
		}
		rs[i].Sockets |= s.topo.SocketBit(pos)
		rs[i].GPUs++
	}
	s.residents[m], s.residentOK[m] = rs, true
}

// Slowdown returns the fractional slowdown the running job a currently
// suffers from the jobs sharing its machines — Figure 6's co-location
// model, perfmodel.CapSlowdown(Σ CoLocationSlowdown), the one both
// simulation engines stretch iteration times by. Every co-runner counts
// once, in job-ID order (float addition is not associative, and this is
// the order the engines have always summed in), at SameSocket locality
// when it shares a socket with a on any machine and SameMachine
// otherwise. a must be this state's own allocation (Allocation, or a
// Residents row). Allocation-free.
func (s *State) Slowdown(a *Allocation) float64 {
	var sum float64
	for last := ""; ; {
		// Find the co-runner with the smallest ID above last. a.GPUs
		// ascends and positions are machine-major, so each of a's machines
		// is one run of it; a machine's rows ascend by ID, so its candidate
		// is the first row past last.
		var next *Allocation
		sameSocket := false
		for i := 0; i < len(a.GPUs); {
			m := s.topo.MachineOf(a.GPUs[i])
			var mine uint64
			for ; i < len(a.GPUs) && s.topo.MachineOf(a.GPUs[i]) == m; i++ {
				mine |= s.topo.SocketBit(a.GPUs[i])
			}
			for _, r := range s.Residents(m) {
				if r.Alloc == a || r.Alloc.JobID <= last {
					continue
				}
				if next == nil || r.Alloc.JobID < next.JobID {
					next, sameSocket = r.Alloc, false
				}
				if r.Alloc == next && r.Sockets&mine != 0 {
					sameSocket = true
				}
				break
			}
		}
		if next == nil {
			return perfmodel.CapSlowdown(sum)
		}
		locality := perfmodel.SameMachine
		if sameSocket {
			locality = perfmodel.SameSocket
		}
		sum += perfmodel.CoLocationSlowdown(a.Traits, next.Traits, locality)
		last = next.JobID
	}
}

// CheckInvariants recomputes the state's derived views from the owner
// table and reports the first one that diverged. Per machine: the free
// count, the committed bus bandwidth (the jobs there, each counted once),
// the placement fingerprint unless it is marked stale, and the resident
// table — its rows are exactly the jobs owning a GPU there, in sorted-ID
// order, each with this state's own Allocation, the socket mask
// topology.SameSocket yields position by position and the count of GPUs
// the owner table gives the job there. Over the cluster: the class table
// (checkClasses), the free total, MaxFreeGPUs, FreeMachines and Eq. 5's
// Fragmentation. The two float sums are maintained incrementally and
// compare within 1e-9. A trial left open is reported first: a what-if
// that forgot its Rollback.
// It is a test and diagnosis aid — O(GPUs · job size), allocating — not a
// hot path.
//
//lint:ignore deadcode oracle: cluster tests and every difftest round recompute each table against the incremental one
func (s *State) CheckInvariants() error {
	const tol = 1e-9
	if s.trial.open {
		return fmt.Errorf("cluster: a trial is open (%d releases since Mark, no Rollback)", len(s.trial.released))
	}
	if err := s.checkClasses(); err != nil {
		return err
	}
	freeTotal, maxFree, freeMachines, sockets := 0, 0, 0, 0
	fragSum := 0.0
	for m := 0; m < s.topo.NumMachines(); m++ {
		gpus := s.topo.GPUsOfMachine(m)
		var ids []string
		free, bus := 0, 0.0
		for _, pos := range gpus {
			switch o := s.owner[pos]; {
			case o == "":
				free++
			case s.allocs[o] == nil:
				return fmt.Errorf("cluster: GPU %d is owned by %s, which has no allocation", pos, o)
			case !slices.Contains(ids, o):
				ids = append(ids, o)
				bus += s.allocs[o].Bandwidth
			}
		}
		if s.freeOnMachine[m] != free {
			return fmt.Errorf("cluster: machine %d: free count %d, owner table has %d free GPUs", m, s.freeOnMachine[m], free)
		}
		if math.Abs(s.busUsed[m]-bus) > tol {
			return fmt.Errorf("cluster: machine %d: %g GB/s of bus committed, jobs %v commit %g", m, s.busUsed[m], ids, bus)
		}
		freeTotal += free
		maxFree = max(maxFree, free)
		if free > 0 {
			freeMachines++
		}
		for _, sk := range s.topo.Sockets(m) {
			on := s.topo.GPUsOfSocket(m, sk)
			freeOn := 0
			for _, pos := range on {
				if s.owner[pos] == "" {
					freeOn++
				}
			}
			fragSum += float64(freeOn) / float64(len(on))
			sockets++
		}

		slices.Sort(ids)
		rs := s.Residents(m)
		if len(rs) != len(ids) {
			return fmt.Errorf("cluster: machine %d: resident table has %d rows, owner table has jobs %v", m, len(rs), ids)
		}
		for i, r := range rs {
			if r.Alloc == nil || r.Alloc != s.allocs[ids[i]] {
				return fmt.Errorf("cluster: machine %d: resident row %d is not this state's allocation of %s", m, i, ids[i])
			}
			var want uint64
			for _, pos := range gpus {
				if slices.ContainsFunc(r.Alloc.GPUs, func(g int) bool { return s.topo.SameSocket(pos, g) }) {
					want |= s.topo.SocketBit(pos)
				}
			}
			if r.Sockets != want {
				return fmt.Errorf("cluster: machine %d: job %s socket mask %#x, SameSocket gives %#x", m, ids[i], r.Sockets, want)
			}
			held := 0
			for _, pos := range gpus {
				if s.owner[pos] == ids[i] {
					held++
				}
			}
			if r.GPUs != held {
				return fmt.Errorf("cluster: machine %d: job %s resident GPU count %d, owner table gives %d", m, ids[i], r.GPUs, held)
			}
		}
		if s.fp != nil && s.fp[m].clean && s.classes.names[s.fp[m].class] != string(s.fingerprint(m)) {
			return fmt.Errorf("cluster: machine %d: fingerprint is not marked stale but differs from a fresh one", m)
		}
	}
	if s.freeTotal != freeTotal {
		return fmt.Errorf("cluster: free total %d, owner table has %d free GPUs", s.freeTotal, freeTotal)
	}
	if got := s.MaxFreeGPUs(); got != maxFree {
		return fmt.Errorf("cluster: MaxFreeGPUs %d, owner table gives %d", got, maxFree)
	}
	if got := s.FreeMachines(); got != freeMachines {
		return fmt.Errorf("cluster: FreeMachines %d, owner table gives %d", got, freeMachines)
	}
	if want := fragSum / float64(max(sockets, 1)); math.Abs(s.Fragmentation()-want) > tol {
		return fmt.Errorf("cluster: Fragmentation %g, owner table gives %g over %d sockets", s.Fragmentation(), want, sockets)
	}
	return nil
}

// checkClasses holds the class table to a recount of the fingerprint
// table: every machine's class is an allocated id (a clean machine's is
// not -1), each id's refs equals the machines holding it, the held ids
// are exactly the interned ones, each under its own fingerprint, and the
// free list is exactly the rest. Whether a clean machine's class names
// its current fingerprint is CheckInvariants' per-machine check.
func (s *State) checkClasses() error {
	t := &s.classes
	holders := make([]int32, len(t.names))
	for m, slot := range s.fp {
		if slot.class < -1 || int(slot.class) >= len(t.names) || slot.clean && slot.class < 0 {
			return fmt.Errorf("cluster: machine %d: class %d is outside the table's %d ids", m, slot.class, len(t.names))
		}
		if slot.class >= 0 {
			holders[slot.class]++
		}
	}
	held := 0
	for id, n := range holders {
		if t.refs[id] != n {
			return fmt.Errorf("cluster: class %d: %d references, %d machines hold it", id, t.refs[id], n)
		}
		if n == 0 {
			continue
		}
		held++
		if got, ok := t.ids[t.names[id]]; !ok || got != int32(id) {
			return fmt.Errorf("cluster: class %d: its fingerprint is interned as class %d (found %t)", id, got, ok)
		}
	}
	if len(t.ids) != held {
		return fmt.Errorf("cluster: class table interns %d fingerprints, machines hold %d classes", len(t.ids), held)
	}
	for _, id := range t.free {
		if id < 0 || int(id) >= len(t.names) || t.names[id] != "" || holders[id] != 0 {
			return fmt.Errorf("cluster: class %d is on the free list but is held or named", id)
		}
		holders[id] = -1 // a second listing of id fails the check above
	}
	if len(t.free) != len(t.names)-held {
		return fmt.Errorf("cluster: class table: %d free ids, %d of %d unheld", len(t.free), len(t.names)-held, len(t.names))
	}
	return nil
}

// MachinesOf returns the distinct machine indices spanned by positions,
// ascending, for schedulers and metrics.
func (s *State) MachinesOf(gpus []int) []int {
	var out []int
	for _, pos := range gpus {
		if m := s.topo.MachineOf(pos); !slices.Contains(out, m) {
			out = append(out, m)
		}
	}
	sort.Ints(out)
	return out
}

// Fragmentation implements Eq. 5: the average over all sockets of the
// fraction of free GPUs per socket. 1 means the cluster is empty, 0 means
// every GPU is allocated. Maintained incrementally, so it is O(1).
func (s *State) Fragmentation() float64 {
	if s.socketCount == 0 {
		return 0
	}
	return s.fragSum / float64(s.socketCount)
}

// FragSum returns the raw Eq. 5 numerator: Σ over sockets of the free
// fraction, before the division by the socket count. Its only caller is
// the benchmark-pinned package placecache, which keys on its exact bits;
// it goes when that package does.
func (s *State) FragSum() float64 { return s.fragSum }

// FragmentationAfter returns Eq. 5 evaluated as if the given (free,
// distinct) GPUs were additionally allocated — the ω_d the utility
// function scores for a candidate placement. O(len(gpus)).
func (s *State) FragmentationAfter(gpus []int) float64 {
	if s.socketCount == 0 {
		return 0
	}
	delta := 0.0
	for _, pos := range gpus {
		delta += 1 / float64(s.topo.SocketSize(pos))
	}
	frag := (s.fragSum - delta) / float64(s.socketCount)
	if frag < 0 {
		frag = 0
	}
	return frag
}

// FreeCountOnMachine returns the number of free GPUs on machine m in O(1).
func (s *State) FreeCountOnMachine(m int) int { return s.freeOnMachine[m] }

// refreshFree recomputes the lazy per-machine gauges (largest free
// block, machines with any free GPU) after allocations changed.
func (s *State) refreshFree() {
	if !s.maxFreeDirty {
		return
	}
	s.maxFree, s.freeMachines = 0, 0
	for _, k := range s.freeOnMachine {
		if k > s.maxFree {
			s.maxFree = k
		}
		if k > 0 {
			s.freeMachines++
		}
	}
	s.maxFreeDirty = false
}

// MaxFreeGPUs returns the largest number of free GPUs on any single
// machine — the availableResources(P) gate of Algorithm 1. Lazily
// recomputed after allocations change.
func (s *State) MaxFreeGPUs() int {
	s.refreshFree()
	return s.maxFree
}

// FreeMachines returns the number of machines with at least one free
// GPU — the seats-now bound for anti-collocated jobs (one machine per
// task). Lazily recomputed alongside MaxFreeGPUs.
func (s *State) FreeMachines() int {
	s.refreshFree()
	return s.freeMachines
}

// MachineFingerprint returns machine m's canonical placement
// fingerprint: the static topology.MachineShape plus everything a
// placement evaluation can observe about the machine's current
// occupancy, expressed positionally over the machine's free-GPU list
// (ascending) so that two machines with equal fingerprints admit an
// order-preserving free-GPU relabeling under which every placement
// input is identical —
//
//   - the free count and the pairwise distance submatrix of the free
//     slots (DRB's affinity graph and all comm-cost terms),
//   - each free slot's socket size (the FragmentationAfter delta) and
//     root-attachment distance (the per-slot component of every
//     cross-machine distance; the machine-level component is in the
//     static shape),
//   - one block per co-resident job, in sorted-ID order (the order
//     predictInterference sums contributions in), carrying the job's
//     interference traits and a bitmask over the free slots marking
//     which of them share a socket with that job's GPUs here (the
//     SameSocket locality upgrade).
//
// Job IDs themselves are deliberately excluded: only the block order
// matters. Maintained lazily — Allocate/Release dirty only the machines
// they touch, recomputation is O(free² + jobs·free) on a single machine.
// The string is the interned one MachineClass numbers.
func (s *State) MachineFingerprint(m int) string {
	return s.classes.names[s.MachineClass(m)]
}

// MachineClass returns the dense id of machine m's fingerprint: two
// machines have the same class exactly when MachineFingerprint is equal
// for them. An id lasts as long as some machine holds it — it is reused
// for another fingerprint only once every machine that had it has
// recomputed to something else. On a clean machine, or one whose
// recomputed fingerprint is already interned, it allocates nothing.
func (s *State) MachineClass(m int) int {
	if s.fp == nil {
		s.fp = make([]fpSlot, s.topo.NumMachines())
		for i := range s.fp {
			s.fp[i].class = -1
		}
	}
	if slot := &s.fp[m]; !slot.clean {
		old := slot.class
		slot.class, slot.clean = s.classes.intern(s.fingerprint(m)), true
		if old >= 0 {
			s.classes.release(old)
		}
	}
	return int(s.fp[m].class)
}

// fingerprint formats machine m's fingerprint from scratch into the
// state's formatting scratch, which the result aliases until the next
// call. Numbers are written as fmt's %d and %g write them.
func (s *State) fingerprint(m int) []byte {
	b := append(s.fpBuf[:0], s.topo.MachineShape(m)...)
	var freeBuf [8]int
	free := s.AppendFreeGPUsOnMachine(freeBuf[:0], m)
	b = append(b, "|f"...)
	b = strconv.AppendInt(b, int64(len(free)), 10)
	for i, a := range free {
		for _, c := range free[i+1:] {
			b = append(b, ',')
			b = strconv.AppendFloat(b, s.topo.Distance(a, c), 'g', -1, 64)
		}
	}
	b = append(b, ";s"...)
	for _, pos := range free {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.topo.SocketSize(pos)), 10)
	}
	b = append(b, ";r"...)
	for _, pos := range free {
		b = append(b, ',')
		b = strconv.AppendFloat(b, s.topo.RootDistance(pos), 'g', -1, 64)
	}
	for _, r := range s.Residents(m) {
		t := r.Alloc.Traits
		b = append(b, ";j"...)
		for i, v := range [...]int{int(t.Model), int(t.Class), t.GPUs, int(t.Mode)} {
			if i > 0 {
				b = append(b, '.')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ':')
		for _, pos := range free {
			share := byte('0')
			if r.Sockets&s.topo.SocketBit(pos) != 0 {
				share = '1'
			}
			b = append(b, share)
		}
	}
	s.fpBuf = b
	return b
}

// Clone returns a deep copy of the allocation state sharing the topology,
// with no trial open — an independent state for reference schedulers and
// benchmarks; the scheduler's own what-ifs are trials (Mark).
func (s *State) Clone() *State {
	c := &State{
		topo:          s.topo,
		owner:         append([]string(nil), s.owner...),
		allocs:        make(map[string]*Allocation, len(s.allocs)),
		busUsed:       slices.Clone(s.busUsed),
		freeOnMachine: slices.Clone(s.freeOnMachine),
		freeTotal:     s.freeTotal,
		fragSum:       s.fragSum,
		socketCount:   s.socketCount,
		maxFree:       s.maxFree,
		freeMachines:  s.freeMachines,
		maxFreeDirty:  s.maxFreeDirty,
		fp:            slices.Clone(s.fp), // nil stays nil: no table built yet
		classes:       s.classes.clone(),
		// The clone's allocations are its own copies, so its resident
		// tables start stale and rebuild against them on first use.
		residents:  make([][]Resident, len(s.residents)),
		residentOK: make([]bool, len(s.residentOK)),
	}
	for id, a := range s.allocs {
		c.allocs[id] = &Allocation{
			JobID:     a.JobID,
			GPUs:      append([]int(nil), a.GPUs...),
			Bandwidth: a.Bandwidth,
			Traits:    a.Traits,
		}
	}
	return c
}

// CopyFrom resets s to a copy of src; the frozen cmd/topoperf is its only
// caller.
func (s *State) CopyFrom(src *State) { *s = *src.Clone() }
