// Package jobgraph models the job communication graph of §4.1.1 of the
// paper: vertices represent the GPUs (tasks) a job requests and edge
// weights denote communication volume between them, normalized so that 0
// means no communication and larger values mean more.
//
// For data-parallel deep-learning frameworks like Caffe, all GPUs perform
// similar work and exchange gradients with each other, so the prototype
// defines an all-to-all graph with a uniform weight derived from the batch
// size: weights range from 4 (smallest batch, most communication) down to
// 1 (largest batch) (§5.1). Other shapes (ring, star, custom) are provided
// for model-parallel and parameter-server style workloads.
package jobgraph

import (
	"fmt"
	"sync"

	"gputopo/internal/graph"
)

// BatchClass buckets training batch sizes the way the paper's workload
// generator does (§5.3): 0=tiny, 1=small, 2=medium, 3=big.
type BatchClass int

// Batch classes used throughout the evaluation.
const (
	BatchTiny BatchClass = iota
	BatchSmall
	BatchMedium
	BatchBig
)

// String returns the class name used in the paper's figures.
func (b BatchClass) String() string {
	switch b {
	case BatchTiny:
		return "tiny"
	case BatchSmall:
		return "small"
	case BatchMedium:
		return "medium"
	case BatchBig:
		return "big"
	default:
		return fmt.Sprintf("BatchClass(%d)", int(b))
	}
}

// Size returns the representative per-GPU batch size of the class, matching
// the prototype's configurations (batch sizes 1..128, §3.1: tiny=1,
// small=4, medium=32, big=128).
func (b BatchClass) Size() int {
	switch b {
	case BatchTiny:
		return 1
	case BatchSmall:
		return 4
	case BatchMedium:
		return 32
	case BatchBig:
		return 128
	}
	return 1
}

// ClassOfSize maps a concrete per-GPU batch size to its class.
func ClassOfSize(size int) BatchClass {
	switch {
	case size <= 2:
		return BatchTiny
	case size <= 8:
		return BatchSmall
	case size <= 32:
		return BatchMedium
	default:
		return BatchBig
	}
}

// CommWeight returns the paper's §5.1 job-graph edge weight for the batch
// class: "for different batch sizes, different weights are used, ranging
// from 4 to 1, where 4 represents the smallest batch size and 1 the
// largest one."
func (b BatchClass) CommWeight() float64 {
	switch b {
	case BatchTiny:
		return 4
	case BatchSmall:
		return 3
	case BatchMedium:
		return 2
	case BatchBig:
		return 1
	}
	return 1
}

// Graph is a job communication graph: task vertices plus weighted
// communication edges.
type Graph struct {
	g *graph.Graph
}

// AllToAll builds the uniform all-to-all communication graph used for
// data-parallel training: every pair of the job's tasks communicates with
// the same weight.
func AllToAll(tasks int, weight float64) *Graph {
	jg := &Graph{g: graph.New()}
	for i := 0; i < tasks; i++ {
		jg.g.AddVertex()
	}
	for i := 0; i < tasks; i++ {
		for j := i + 1; j < tasks; j++ {
			jg.g.AddEdge(i, j, weight)
		}
	}
	return jg
}

// allToAllKey identifies a shared all-to-all graph: the batch-class comm
// weight and the task count fully determine it.
type allToAllKey struct {
	tasks  int
	weight float64
}

var allToAllCache sync.Map // allToAllKey -> *Graph

// SharedAllToAll returns a process-wide cached all-to-all graph for the
// (tasks, weight) pair. A scenario-2 workload holds 10k jobs drawn from a
// handful of (GPU count, batch class) combinations; building each job's
// identical graph privately was pure allocation overhead. The returned
// graph is shared — treat it as immutable (job.SetCommGraph replaces, it
// must never mutate in place).
func SharedAllToAll(tasks int, weight float64) *Graph {
	key := allToAllKey{tasks: tasks, weight: weight}
	if g, ok := allToAllCache.Load(key); ok {
		return g.(*Graph)
	}
	g, _ := allToAllCache.LoadOrStore(key, AllToAll(tasks, weight))
	return g.(*Graph)
}

// Ring builds a ring communication graph (each task talks to its two
// neighbors), the pattern of ring all-reduce implementations.
func Ring(tasks int, weight float64) *Graph {
	jg := &Graph{g: graph.New()}
	for i := 0; i < tasks; i++ {
		jg.g.AddVertex()
	}
	if tasks == 2 {
		jg.g.AddEdge(0, 1, weight)
		return jg
	}
	for i := 0; i < tasks && tasks > 1; i++ {
		jg.g.AddEdge(i, (i+1)%tasks, weight)
	}
	return jg
}

// Star builds a star communication graph with task 0 as the hub — the
// pattern of a parameter-server deployment.
func Star(tasks int, weight float64) *Graph {
	jg := &Graph{g: graph.New()}
	for i := 0; i < tasks; i++ {
		jg.g.AddVertex()
	}
	for i := 1; i < tasks; i++ {
		jg.g.AddEdge(0, i, weight)
	}
	return jg
}

// Tasks returns the number of task vertices (= GPUs requested).
func (jg *Graph) Tasks() int { return jg.g.NumVertices() }

// Weight returns the communication weight between tasks a and b (0 when
// they do not communicate directly).
func (jg *Graph) Weight(a, b int) float64 {
	w, ok := jg.g.EdgeWeight(a, b)
	if !ok {
		return 0
	}
	return w
}

// CommIntensity returns the maximum edge weight — the job-level
// communication intensity used to scale the communication term of the
// utility function (0 for single-task jobs, which never communicate).
func (jg *Graph) CommIntensity() float64 { return jg.g.MaxEdgeWeight() }

// Underlying exposes the raw graph for the partitioner.
func (jg *Graph) Underlying() *graph.Graph { return jg.g }
