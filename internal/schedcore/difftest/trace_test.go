package difftest

import (
	"fmt"
	"math/rand"

	"gputopo/internal/job"
	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/schedcore"
	"gputopo/internal/topology"
)

// EventKind enumerates trace events. Every event is followed by one
// Schedule call on every scheduler under test, so traces exercise the
// round boundaries both drivers (simulator, serving loop) produce.
type EventKind int

// Trace event kinds. Remove resolves dynamically at apply time: it
// becomes a Release when the target is running, a Withdraw when it is
// queued, and a no-op when it already finished — the schedulers under
// comparison agree on that state by invariant, so the resolution is
// identical on every side.
const (
	Submit EventKind = iota
	Remove
)

// Event is one step of a trace.
type Event struct {
	Kind EventKind
	// Job is the submission payload (Submit). Consumers must clone it —
	// schedulers may not share job objects.
	Job *job.Job
	// Target is the job ID a Remove aims at.
	Target string
}

// Trace is one randomized scheduling session: a substrate, a scheduler
// configuration, and an event sequence.
type Trace struct {
	Seed       uint64
	Topology   *topology.Topology
	TopoName   string
	Kinds      []topology.MachineKind // per machine, in index order
	Machines   int
	Policy     schedcore.Policy
	Discipline string // "" (fifo) or "priority"
	Preempt    bool
	// Domains > 1 additionally checks the trace under sharded
	// scheduling: the substrate splits hash-style into this many
	// domains, submissions route through domains.Router over live
	// free counters, and each routed sub-trace must match the
	// single-core reference on that domain's slice of the fleet.
	Domains int
	Events  []Event
}

// String identifies the trace in failure messages.
func (tr *Trace) String() string {
	return fmt.Sprintf("seed=%d topo=%s policy=%s disc=%q preempt=%v domains=%d events=%d",
		tr.Seed, tr.TopoName, tr.Policy, tr.Discipline, tr.Preempt, tr.Domains, len(tr.Events))
}

// CloneJob copies a generated job so schedulers never share mutable
// state.
func CloneJob(j *job.Job) *job.Job {
	c := job.New(j.ID, j.Model, j.BatchSize, j.GPUs, j.MinUtility, j.Arrival)
	c.Iterations = j.Iterations
	c.SingleNode = j.SingleNode
	c.AntiCollocate = j.AntiCollocate
	c.Parallelism = j.Parallelism
	c.Priority = j.Priority
	if err := c.SetCommGraph(j.CommGraph()); err != nil { // graphs are immutable: sharing one is safe
		panic(err)
	}
	return c
}

// SubTopology builds the topology of the given machines of the trace's
// fleet (ascending indices) — the whole fleet, or one scheduling domain's
// slice of it.
func (tr *Trace) SubTopology(machines []int) *topology.Topology {
	var specs []topology.MachineSpec
	for _, m := range machines {
		if n := len(specs); n > 0 && specs[n-1].Kind == tr.Kinds[m] {
			specs[n-1].Count++
		} else {
			specs = append(specs, topology.MachineSpec{Kind: tr.Kinds[m], Count: 1})
		}
	}
	if len(specs) == 1 {
		return topology.Cluster(specs[0].Count, specs[0].Kind)
	}
	topo, err := topology.HeterogeneousCluster(specs)
	if err != nil {
		panic(err)
	}
	return topo
}

// setFleet installs the named fleet — runs of machines of one kind, in
// index order — and builds its topology.
func (tr *Trace) setFleet(name string, fleet ...topology.MachineSpec) {
	tr.TopoName = name
	var all []int
	for _, s := range fleet {
		for i := 0; i < s.Count; i++ {
			all = append(all, len(tr.Kinds))
			tr.Kinds = append(tr.Kinds, s.Kind)
		}
	}
	tr.Machines = len(tr.Kinds)
	tr.Topology = tr.SubTopology(all)
}

// NewTrace generates a deterministic randomized trace from the seed:
// random substrate, random scheduler configuration, and a submit-heavy
// event mix with enough removals to churn capacity and wake parked jobs.
func NewTrace(seed uint64) *Trace {
	rng := rand.New(rand.NewSource(int64(seed)))
	tr := &Trace{Seed: seed}

	topos := []struct {
		name     string
		kind     topology.MachineKind
		machines int
	}{
		{"minsky:1", topology.KindMinsky, 1},
		{"minsky:2", topology.KindMinsky, 2},
		{"dgx1:1", topology.KindDGX1, 1},
		{"pcie:2", topology.KindPCIeBox, 2},
	}
	pick := topos[rng.Intn(len(topos))]
	tr.setFleet(pick.name, topology.MachineSpec{Kind: pick.kind, Count: pick.machines})
	tr.drawConfig(rng)
	tr.drawEvents(rng, 20+rng.Intn(21), false)
	// Drawn last so the sharding decision never perturbs the event
	// stream a seed generated before domains existed. Every generated
	// job (<= 4 GPUs, never anti-collocated) stays admissible in a
	// single-machine domain of these kinds, so hash:Machines is safe.
	if tr.Machines > 1 && rng.Intn(2) == 1 {
		tr.Domains = tr.Machines
	}
	return tr
}

// NewFleetTrace generates the second trace family: fleets of six to
// eight machines, where one candidate sweep meets many machines of equal
// shape (NewTrace's fleets have at most two), and jobs that replace the
// default all-to-all communication graph with a ring or a star in about
// 15% of the submissions (NewTrace's never do). It is a generator of its
// own so that no NewTrace seed changes.
func NewFleetTrace(seed uint64) *Trace {
	rng := rand.New(rand.NewSource(int64(seed)))
	tr := &Trace{Seed: seed}
	switch rng.Intn(3) {
	case 0:
		tr.setFleet("minsky:8", topology.MachineSpec{Kind: topology.KindMinsky, Count: 8})
	case 1:
		tr.setFleet("pcie:6", topology.MachineSpec{Kind: topology.KindPCIeBox, Count: 6})
	case 2:
		tr.setFleet("mix[minsky:3+dgx1:1+pcie:3]",
			topology.MachineSpec{Kind: topology.KindMinsky, Count: 3},
			topology.MachineSpec{Kind: topology.KindDGX1, Count: 1},
			topology.MachineSpec{Kind: topology.KindPCIeBox, Count: 3})
	}
	tr.drawConfig(rng)
	tr.drawEvents(rng, 40+rng.Intn(41), true)
	// hash:2 leaves every domain a machine of four or more GPUs, so every
	// generated job stays admissible wherever it is routed.
	if rng.Intn(2) == 1 {
		tr.Domains = 2
	}
	return tr
}

// drawConfig draws the scheduler configuration.
func (tr *Trace) drawConfig(rng *rand.Rand) {
	policies := []schedcore.Policy{schedcore.FCFS, schedcore.BestFit, schedcore.TopoAware, schedcore.TopoAwareP}
	tr.Policy = policies[rng.Intn(len(policies))]
	if rng.Intn(2) == 1 {
		tr.Discipline = "priority"
	}
	tr.Preempt = rng.Intn(2) == 1
}

// drawEvents draws a submit-heavy event mix of n events. With commGraphs
// about 15% of the submitted jobs carry a ring or star communication
// graph; the draw comes after every other draw of the job.
func (tr *Trace) drawEvents(rng *rand.Rand, n int, commGraphs bool) {
	models := []perfmodel.NN{perfmodel.AlexNet, perfmodel.CaffeRef, perfmodel.GoogLeNet}
	var ids []string
	for i := 0; i < n; i++ {
		if len(ids) > 0 && rng.Float64() < 0.35 {
			tr.Events = append(tr.Events, Event{Kind: Remove, Target: ids[rng.Intn(len(ids))]})
			continue
		}
		id := fmt.Sprintf("j%02d", len(ids))
		j := job.New(id, models[rng.Intn(len(models))], 1<<rng.Intn(4), 1+rng.Intn(4),
			[]float64{0, 0, 0.4, 0.7}[rng.Intn(4)], float64(i))
		if rng.Float64() < 0.2 {
			j.SingleNode = false
		}
		// Positive priorities drive the priority discipline and the
		// preemption path; the mix keeps plenty of priority-0 victims.
		if rng.Float64() < 0.35 {
			j.Priority = 1 + rng.Intn(2)
		}
		if commGraphs && rng.Float64() < 0.15 {
			shape := jobgraph.Ring
			if rng.Intn(2) == 1 {
				shape = jobgraph.Star
			}
			if err := j.SetCommGraph(shape(j.GPUs, float64(1+rng.Intn(4)))); err != nil {
				panic(err)
			}
		}
		ids = append(ids, id)
		tr.Events = append(tr.Events, Event{Kind: Submit, Job: j})
	}
}
