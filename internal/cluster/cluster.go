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
	// freeHist[k], the number of machines with exactly k free GPUs —
	// MaxFreeGPUs and FreeMachines read it in O(GPUs per machine).
	freeOnMachine []int
	freeHist      []int
	freeTotal     int
	fragSum       float64 // Σ over sockets of freeGPUs/totalGPUs
	socketCount   int

	// fp[m] is machine m's placement fingerprint as an interned class id
	// in classes, which also lists each class's members: the class index
	// the candidate sweep walks. Allocate, Release and Rollback push the
	// machines whose GPUs they touch onto dirty, and the next class read
	// drains it — recomputes those fingerprints and moves each machine
	// between member lists; a machine the drain finds full leaves the
	// index instead. nil until the first class is asked for.
	fp      []fpSlot
	dirty   []int32
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

// trial is the journal of an open what-if: the Eq. 5 sum Mark saved, and
// what each Release inside it undid, in order.
type trial struct {
	open     bool
	released []*Allocation
	bus      []busMark
	fragSum  float64
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
	// computed, -1 before the first computation and while the machine is
	// out of the index (full). A dirty machine keeps it, and its place in
	// that class's member list, until the drain.
	class int32
	// dirty reports that the machine is on State.dirty: its fingerprint
	// may have changed since class was computed.
	dirty bool
}

// classTable interns machine fingerprints to dense class ids and lists
// each id's members. An id is held by every machine whose fpSlot names
// it, dirty ones included; an id whose member list empties goes on free,
// to be handed out again before the table grows. A freed id keeps its
// fingerprint until it is handed out for another, so a machine that
// leaves a class and comes back — a trial's release and Rollback — finds
// it still interned. A recompute takes its new id before giving up its
// old one, so at most NumMachines()+1 ids ever exist.
type classTable struct {
	ids     map[string]int32 // fingerprint -> class id, for every named id
	names   []string         // class id -> fingerprint, "" before the first
	members [][]int32        // class id -> machines holding it, ascending
	free    []int32          // ids nobody holds, most recently freed last
}

// intern returns fp's class id, allocating only when fp is not interned
// yet: the map lookup through string(fp) does not copy it. A free id
// found by name comes off the free list, and a new one is the longest
// freed; either has no members until the caller joins one.
func (t *classTable) intern(fp []byte) int32 {
	id, ok := t.ids[string(fp)]
	if ok {
		if len(t.members[id]) == 0 {
			i := slices.Index(t.free, id)
			t.free = slices.Delete(t.free, i, i+1)
		}
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	if len(t.free) > 0 {
		id = t.free[0]
		t.free = slices.Delete(t.free, 0, 1)
		delete(t.ids, t.names[id])
	} else {
		id = int32(len(t.names))
		t.names, t.members = append(t.names, ""), append(t.members, nil)
	}
	t.names[id] = string(fp)
	t.ids[t.names[id]] = id
	return id
}

// join inserts machine m into id's member list. A list keeps its array
// when it shrinks, and a freed id its list's, so a warm move allocates
// nothing.
func (t *classTable) join(id, m int32) {
	ms := t.members[id]
	i, _ := slices.BinarySearch(ms, m)
	t.members[id] = slices.Insert(ms, i, m)
}

// leave removes machine m from id's member list, freeing id when none is
// left.
func (t *classTable) leave(id, m int32) {
	ms := t.members[id]
	i, _ := slices.BinarySearch(ms, m)
	if ms = slices.Delete(ms, i, i+1); len(ms) == 0 {
		t.free = append(t.free, id)
	}
	t.members[id] = ms
}

// clone returns a copy of t sharing no buffer with it.
func (t *classTable) clone() classTable {
	members := make([][]int32, len(t.members))
	for id, ms := range t.members {
		members[id] = slices.Clone(ms)
	}
	return classTable{ids: maps.Clone(t.ids), names: slices.Clone(t.names), members: members, free: slices.Clone(t.free)}
}

// NewState returns an empty allocation state for the topology.
func NewState(topo *topology.Topology) *State {
	s := &State{
		topo:          topo,
		owner:         make([]string, topo.NumGPUs()),
		allocs:        make(map[string]*Allocation),
		busUsed:       make([]float64, topo.NumMachines()),
		freeOnMachine: make([]int, topo.NumMachines()),
		freeHist:      make([]int, 1),
		residents:     make([][]Resident, topo.NumMachines()),
		residentOK:    make([]bool, topo.NumMachines()),
	}
	for m := 0; m < topo.NumMachines(); m++ {
		k := len(topo.GPUsOfMachine(m))
		s.freeOnMachine[m] = k
		s.freeTotal += k
		if k >= len(s.freeHist) {
			s.freeHist = append(s.freeHist, make([]int, k+1-len(s.freeHist))...)
		}
		s.freeHist[k]++
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
		s.moveFree(m, -1)
		s.fragSum -= 1 / float64(s.topo.SocketSize(pos))
		s.touch(m)
		if s.firstOnMachine(alloc.GPUs, i) {
			s.busUsed[m] += bandwidth
		}
	}
	s.allocs[jobID] = alloc
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
		s.moveFree(m, +1)
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
	t.open, t.fragSum = true, s.fragSum
	return nil
}

// Rollback undoes every Release since Mark and closes the trial. The same
// *Allocation values go back into the allocation map and the owner table,
// and the free counts and the free-count histogram count back down. The
// float gauges — each bus Release uncommitted, the Eq. 5 sum — take the
// values they had at Mark, so they come back bit for bit, which
// (a − x) + x would not guarantee. The touched machines go on the dirty
// list and their resident rows stale, and rebuild on demand: a class id
// may come back renumbered, but two machines share one exactly when they
// did before. Without an open trial it does nothing.
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
			s.moveFree(m, -1)
			s.touch(m)
		}
	}
	// Backwards: a machine two released jobs shared keeps its first,
	// pre-trial reading.
	for i := len(t.bus) - 1; i >= 0; i-- {
		s.busUsed[t.bus[i].m] = t.bus[i].used
	}
	s.fragSum = t.fragSum
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

// moveFree changes machine m's free count by d, keeping the free total
// and the free-count histogram in step.
func (s *State) moveFree(m, d int) {
	s.freeHist[s.freeOnMachine[m]]--
	s.freeOnMachine[m] += d
	s.freeHist[s.freeOnMachine[m]]++
	s.freeTotal += d
}

// touch marks machine m's lazily derived views — its placement
// fingerprint and its resident table — stale: the machine goes on the
// dirty list once, however often it is touched before the next class
// read. Allocate, Release and Rollback call it for every machine whose
// GPUs they change.
func (s *State) touch(m int) {
	if s.fp != nil && !s.fp[m].dirty {
		s.fp[m].dirty = true
		s.dirty = append(s.dirty, int32(m))
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
// the placement fingerprint unless it is dirty or out of the index, and
// the resident table — its rows are exactly the jobs owning a GPU there,
// in sorted-ID order, each with this state's own Allocation, the socket
// mask topology.SameSocket yields position by position and the count of
// GPUs the owner table gives the job there. Over the cluster: the class index
// (checkClasses), the free total, the free-count histogram and Eq. 5's
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
	freeTotal, sockets := 0, 0
	hist := make([]int, len(s.freeHist))
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
		hist[free]++
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
		if s.fp != nil && !s.fp[m].dirty && s.fp[m].class >= 0 && s.classes.names[s.fp[m].class] != string(s.fingerprint(m)) {
			return fmt.Errorf("cluster: machine %d: fingerprint is not marked dirty but differs from a fresh one", m)
		}
	}
	if s.freeTotal != freeTotal {
		return fmt.Errorf("cluster: free total %d, owner table has %d free GPUs", s.freeTotal, freeTotal)
	}
	if !slices.Equal(s.freeHist, hist) {
		return fmt.Errorf("cluster: free-count histogram %v, owner table gives %v", s.freeHist, hist)
	}
	if want := fragSum / float64(max(sockets, 1)); math.Abs(s.Fragmentation()-want) > tol {
		return fmt.Errorf("cluster: Fragmentation %g, owner table gives %g over %d sockets", s.Fragmentation(), want, sockets)
	}
	return nil
}

// checkClasses holds the class index to a recount of the fingerprint
// table: every machine's class is an allocated id (a machine off the
// dirty list with a free GPU has one), the dirty list holds exactly the machines marked
// dirty, once each, every member list is ascending and lists exactly the
// machines whose slot names its id, every held id and every named free
// one is interned under its own fingerprint and nothing else is, and the
// free list lists each unheld id once. Whether a clean machine's class
// names its current fingerprint is CheckInvariants' per-machine check.
func (s *State) checkClasses() error {
	t := &s.classes
	holders := make([]int, len(t.names))
	dirty := 0
	for m, slot := range s.fp {
		if slot.class < -1 || int(slot.class) >= len(t.names) || !slot.dirty && slot.class < 0 && s.freeOnMachine[m] > 0 {
			return fmt.Errorf("cluster: machine %d: class %d is outside the table's %d ids", m, slot.class, len(t.names))
		}
		if slot.class >= 0 {
			holders[slot.class]++
		}
		if slot.dirty {
			dirty++
		}
	}
	if len(s.dirty) != dirty {
		return fmt.Errorf("cluster: dirty list has %d machines, %d are marked dirty", len(s.dirty), dirty)
	}
	listed := make([]bool, len(s.fp))
	for _, m := range s.dirty {
		if !s.fp[m].dirty || listed[m] {
			return fmt.Errorf("cluster: machine %d is on the dirty list twice or not marked dirty", m)
		}
		listed[m] = true
	}
	held, named := 0, 0
	for id, n := range holders {
		ms := t.members[id]
		if len(ms) != n {
			return fmt.Errorf("cluster: class %d: %d members listed, %d machines hold it", id, len(ms), n)
		}
		for i, m := range ms {
			if i > 0 && ms[i-1] >= m || s.fp[m].class != int32(id) {
				return fmt.Errorf("cluster: class %d: member list %v is not the ascending list of its holders", id, ms)
			}
		}
		if n > 0 {
			held++
		}
		if n == 0 && t.names[id] == "" {
			continue
		}
		named++
		if got, ok := t.ids[t.names[id]]; !ok || got != int32(id) {
			return fmt.Errorf("cluster: class %d: its fingerprint is interned as class %d (found %t)", id, got, ok)
		}
	}
	if len(t.ids) != named {
		return fmt.Errorf("cluster: class table interns %d fingerprints, %d ids are named", len(t.ids), named)
	}
	for _, id := range t.free {
		if id < 0 || int(id) >= len(t.names) || holders[id] != 0 {
			return fmt.Errorf("cluster: class %d is on the free list but is held or listed twice", id)
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
// it goes when that package does (docs/performance.md, "The frozen
// benchmark contract").
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

// MaxFreeGPUs returns the largest number of free GPUs on any single
// machine — the availableResources(P) gate of Algorithm 1: the highest
// non-empty bucket of the free-count histogram.
func (s *State) MaxFreeGPUs() int {
	k := len(s.freeHist) - 1
	for k > 0 && s.freeHist[k] == 0 {
		k--
	}
	return k
}

// FreeMachines returns the number of machines with at least one free
// GPU — the seats-now bound for anti-collocated jobs (one machine per
// task) — in O(1) from the free-count histogram.
func (s *State) FreeMachines() int {
	return s.topo.NumMachines() - s.freeHist[0]
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
// matters. Maintained lazily, like every class read: it drains the dirty
// list first (see Classes), and a recompute is O(free² + jobs·free) on a
// single machine. The string is the interned one MachineClass numbers.
func (s *State) MachineFingerprint(m int) string {
	return s.classes.names[s.MachineClass(m)]
}

// MachineClass returns the dense id of machine m's fingerprint: two
// machines have the same class exactly when MachineFingerprint is equal
// for them. It drains the dirty list first (see Classes) and, for a full
// machine out of the index, computes its class and lists it. An id lasts
// as long as some machine holds it — it is reused for another
// fingerprint only once every machine that had it has recomputed to
// something else. With nothing dirty, or when every recomputed
// fingerprint is already interned, it allocates nothing.
func (s *State) MachineClass(m int) int {
	s.drain()
	if s.fp[m].class < 0 {
		s.classify(int32(m))
	}
	return int(s.fp[m].class)
}

// Classes returns the class index: entry c lists, ascending, the machines
// whose fingerprint is class c (MachineClass), and is empty for an id
// nobody holds. Every machine with a free GPU is listed; a full one,
// which can take no job, only while a MachineClass read of it is
// current. Classes first drains the dirty list — recomputes the
// fingerprint of every machine Allocate, Release or Rollback touched
// since the last class read and moves each whose class changed to its
// new list, or out of the index when it is full — so a caller pays only
// for the machines that changed. The slices are the state's own: valid
// until the state next changes, and not to be mutated.
func (s *State) Classes() [][]int32 {
	s.drain()
	return s.classes.members
}

// drain brings the class index up to date: it builds it on the first
// class read, then recomputes each dirty machine's class, or takes the
// machine out of the index when it has no free GPU.
func (s *State) drain() {
	if s.fp == nil {
		s.fp = make([]fpSlot, s.topo.NumMachines())
		s.dirty = make([]int32, len(s.fp))
		for m := range s.fp {
			s.fp[m] = fpSlot{class: -1, dirty: true}
			s.dirty[m] = int32(m)
		}
	}
	for _, m := range s.dirty {
		slot := &s.fp[m]
		slot.dirty = false
		switch {
		case s.freeOnMachine[m] > 0:
			s.classify(m)
		case slot.class >= 0:
			s.classes.leave(slot.class, m)
			slot.class = -1
		}
	}
	s.dirty = s.dirty[:0]
}

// classify recomputes machine m's fingerprint and moves m to its class's
// member list, taking the new id before it gives up the old one.
func (s *State) classify(m int32) {
	slot := &s.fp[m]
	old := slot.class
	if slot.class = s.classes.intern(s.fingerprint(int(m))); slot.class != old {
		s.classes.join(slot.class, m)
		if old >= 0 {
			s.classes.leave(old, m)
		}
	}
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
		freeHist:      slices.Clone(s.freeHist),
		freeTotal:     s.freeTotal,
		fragSum:       s.fragSum,
		socketCount:   s.socketCount,
		fp:            slices.Clone(s.fp), // nil stays nil: no index built yet
		dirty:         slices.Clone(s.dirty),
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
// caller (docs/performance.md, "The frozen benchmark contract").
func (s *State) CopyFrom(src *State) { *s = *src.Clone() }
