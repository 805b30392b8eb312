package schedcore

import (
	"fmt"

	"gputopo/internal/heap"
	"gputopo/internal/job"
)

// QueueDiscipline orders the waiting queue by key: a job whose key is
// less is served first. Key sets A and B and leaves C zero; the core sets
// C to the submission sequence, so ties keep submission order and a
// discipline only has to express priority, not a total order. The
// discipline must be consistent for the lifetime of the Core and must not
// mutate the jobs it keys.
type QueueDiscipline interface {
	// Name labels the discipline in state dumps and logs.
	Name() string
	Key(j *job.Job) heap.Key
}

// fifoByArrival is the paper's §4.4 discipline: oldest arrival first,
// submission order on ties. It is the default and the only discipline the
// simulation artifacts are recorded under.
type fifoByArrival struct{}

// FIFOByArrival returns the default arrival-time FIFO discipline.
func FIFOByArrival() QueueDiscipline { return fifoByArrival{} }

func (fifoByArrival) Name() string { return "fifo-arrival" }

// Key is (0, arrival).
func (fifoByArrival) Key(j *job.Job) heap.Key { return heap.Key{B: j.Arrival} }

// priorityThenArrival serves strictly higher Priority first and falls
// back to arrival order inside a priority class — the discipline of the
// co-located-workload scenarios, where latency-sensitive jobs overtake
// throughput training but each class stays FIFO-fair internally.
type priorityThenArrival struct{}

// PriorityThenArrival returns the priority-first queue discipline.
func PriorityThenArrival() QueueDiscipline { return priorityThenArrival{} }

func (priorityThenArrival) Name() string { return "priority-arrival" }

// Key is (−priority, arrival).
func (priorityThenArrival) Key(j *job.Job) heap.Key {
	return heap.Key{A: -float64(j.Priority), B: j.Arrival}
}

// ParseDiscipline maps a discipline name to its implementation. The
// empty string selects the default (arrival FIFO), so configs can leave
// the field unset.
func ParseDiscipline(name string) (QueueDiscipline, error) {
	switch name {
	case "", "fifo", "fifo-arrival":
		return FIFOByArrival(), nil
	case "priority", "priority-arrival":
		return PriorityThenArrival(), nil
	}
	return nil, fmt.Errorf("sched: unknown queue discipline %q (want fifo or priority)", name)
}
