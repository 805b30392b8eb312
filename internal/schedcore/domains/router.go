package domains

import (
	"fmt"
	"math"

	"gputopo/internal/job"
)

// FreeFunc reports a domain's live occupancy: its free GPU count, the
// largest free-GPU count on any single machine, and the number of
// machines with any free GPU (the seats-now bound for anti-collocated
// jobs). The serving layer backs this with counters its domain
// event-loops publish after every batch — the router never touches a
// core directly, so a Route call costs three counter reads per domain
// and no cross-loop synchronization. A domain that takes no writes
// reports a negative free GPU count: Route sends a job there only when no
// domain that takes writes admits it.
type FreeFunc func(domain int) (freeGPUs, maxFreeOnMachine, freeMachines int)

// Router picks a domain per submission over live free-GPU counters.
// Routing is all it does: which domain a job ended up in is the caller's
// to remember, next to whatever else it tracks per job. A Router holds
// no mutable state; Route is as concurrency-safe as its FreeFunc.
type Router struct {
	caps []Capacity
	free FreeFunc
}

// NewRouter builds a router over the domains' capacities and the live
// counter source.
func NewRouter(caps []Capacity, free FreeFunc) *Router {
	return &Router{caps: caps, free: free}
}

// Route picks the job's domain: among admissible domains (Capacity.Admits
// — the job can ever place there), prefer the one with the most free GPUs
// that can seat the job right now; when every admissible domain is at its
// capacity watermark (the job would queue anywhere), spill resolves to
// the admissible domain with the most free GPUs so the job queues where
// capacity frees soonest, or, when no admissible domain takes writes, to
// the lowest-indexed one. Ties break on the lowest domain index, keeping
// routing deterministic for a fixed counter sequence.
func (r *Router) Route(j *job.Job) (int, error) {
	bestNow, bestNowFree := -1, -1
	bestAny, bestAnyFree := -1, math.MinInt
	for d, c := range r.caps {
		if !c.Admits(j) {
			continue
		}
		freeGPUs, maxMachine, freeMachines := r.free(d)
		if freeGPUs > bestAnyFree {
			bestAny, bestAnyFree = d, freeGPUs
		}
		seatsNow := freeGPUs >= j.GPUs &&
			(!j.SingleNode || maxMachine >= j.GPUs) &&
			(!j.AntiCollocate || freeMachines >= j.GPUs)
		if seatsNow && freeGPUs > bestNowFree {
			bestNow, bestNowFree = d, freeGPUs
		}
	}
	if bestNow >= 0 {
		return bestNow, nil
	}
	if bestAny >= 0 {
		return bestAny, nil
	}
	return -1, fmt.Errorf("domains: job %s (gpus=%d single_node=%v anti_collocate=%v) is admissible in no domain", j.ID, j.GPUs, j.SingleNode, j.AntiCollocate)
}
