package schedcore

import (
	"fmt"

	"gputopo/internal/heap"
	"gputopo/internal/job"
)

// QueueDiscipline orders the waiting queue by key: a job whose key is
// less is served first. It is one of two comparable values.
type QueueDiscipline struct{ priority bool }

// FIFOByArrival returns the paper's §4.4 discipline, oldest arrival first:
// the zero value, the default and the only discipline the simulation
// artifacts are recorded under.
func FIFOByArrival() QueueDiscipline { return QueueDiscipline{} }

// PriorityThenArrival returns the discipline of the co-located-workload
// scenarios: strictly higher Priority first, arrival order inside a
// priority class, so latency-sensitive jobs overtake throughput training
// but each class stays FIFO-fair internally.
func PriorityThenArrival() QueueDiscipline { return QueueDiscipline{priority: true} }

// Name labels the discipline in state dumps and logs.
func (d QueueDiscipline) Name() string {
	if d.priority {
		return "priority-arrival"
	}
	return "fifo-arrival"
}

// Key is (0, arrival) under FIFO and (−priority, arrival) under priority.
// C stays zero: the core sets it to the submission sequence, so ties keep
// submission order.
func (d QueueDiscipline) Key(j *job.Job) heap.Key {
	if d.priority {
		return heap.Key{A: -float64(j.Priority), B: j.Arrival}
	}
	return heap.Key{B: j.Arrival}
}

// ParseDiscipline maps a discipline name to its value. The empty string
// selects the default (arrival FIFO), so configs can leave the field
// unset.
func ParseDiscipline(name string) (QueueDiscipline, error) {
	switch name {
	case "", "fifo", "fifo-arrival":
		return FIFOByArrival(), nil
	case "priority", "priority-arrival":
		return PriorityThenArrival(), nil
	}
	return QueueDiscipline{}, fmt.Errorf("sched: unknown queue discipline %q (want fifo or priority)", name)
}
