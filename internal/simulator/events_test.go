package simulator

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/schedcore"
	"gputopo/internal/topology"
)

// TestEventQueuePopsInStableOrder: random pushes over few distinct times
// and kinds, interleaved with pops, come out exactly in the order a stable
// sort on (time, kind) puts the outstanding events in — (time, kind, push
// order).
func TestEventQueuePopsInStableOrder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var outstanding []event // in push order
		pushed, ties := 0, 0
		check := func(step int) {
			t.Helper()
			slices.SortStableFunc(outstanding, func(a, b event) int {
				switch {
				case a.time != b.time:
					if a.time < b.time {
						return -1
					}
					return 1
				default:
					return int(a.kind) - int(b.kind)
				}
			})
			got, want := q.pop(), outstanding[0]
			outstanding = outstanding[1:]
			if got.seq != want.seq || got.time != want.time || got.kind != want.kind || got.id != want.id {
				t.Fatalf("seed %d step %d: popped %+v, want %+v", seed, step, got, want)
			}
			if len(outstanding) > 0 && outstanding[0].time == got.time && outstanding[0].kind == got.kind {
				ties++
			}
		}
		for step := 0; step < 400; step++ {
			if len(outstanding) == 0 || rng.Intn(3) > 0 {
				ev := event{
					time: float64(rng.Intn(4)) / 2,
					kind: eventKind(rng.Intn(3)),
					id:   fmt.Sprintf("e%d", pushed),
				}
				q.push(ev)
				ev.seq = pushed
				pushed++
				outstanding = append(outstanding, ev)
				continue
			}
			check(step)
		}
		for len(outstanding) > 0 {
			check(-1)
		}
		if q.Len() != 0 {
			t.Fatalf("seed %d: %d events left after draining", seed, q.Len())
		}
		if ties < 20 {
			t.Fatalf("seed %d: only %d pops met an equal (time, kind) behind them", seed, ties)
		}
	}
}

// TestEventQueueAllocatesNothing: once the heap's array has room, a push
// and a pop allocate nothing.
func TestEventQueueAllocatesNothing(t *testing.T) {
	var q eventQueue
	for i := 0; i < 64; i++ {
		q.push(event{time: float64(i % 7), kind: eventKind(i % 3), id: "warm"})
	}
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		n++
		q.push(event{time: float64(n % 11), kind: evFinish, id: "x", gen: n})
		q.pop()
	})
	if allocs != 0 {
		t.Fatalf("push+pop allocates %v objects, want 0", allocs)
	}
}

// TestJobsComeInIDOrder: every engine reports Result.Jobs in job-ID order
// whatever order the jobs arrive and finish in, the sharded merge too.
func TestJobsComeInIDOrder(t *testing.T) {
	topo := topology.Cluster(4, topology.KindMinsky)
	shards := []Shard{
		{Topology: topology.Cluster(2, topology.KindMinsky), Machines: []int{0, 1}},
		{Topology: topology.Cluster(2, topology.KindMinsky), Machines: []int{2, 3}},
	}
	mk := func() []*job.Job {
		var jobs []*job.Job
		for i := 0; i < 12; i++ {
			// Input order is descending ID; longer jobs arrive first, so
			// finishes come in neither order.
			j := job.New(fmt.Sprintf("j%02d", 11-i), perfmodel.AlexNet, 4, 1+i%2, 0, float64(i))
			j.Iterations = 2000 - 150*i
			jobs = append(jobs, j)
		}
		return jobs
	}
	runs := map[string]func() (*Result, error){
		"simulator": func() (*Result, error) { return Run(Config{Topology: topo, Policy: schedcore.TopoAware}, mk()) },
		"prototype": func() (*Result, error) {
			res, err := RunPrototype(PrototypeConfig{Topology: topo, Policy: schedcore.TopoAware}, mk())
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		},
		"sharded": func() (*Result, error) {
			return RunSharded(Config{Topology: topo, Policy: schedcore.TopoAware}, shards, mk(), 1)
		},
	}
	for name, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var ids []string
		finishOrder := slices.Clone(res.Jobs)
		for _, jr := range res.Jobs {
			ids = append(ids, jr.Job.ID)
		}
		slices.SortFunc(finishOrder, func(a, b JobResult) int {
			if a.Finish != b.Finish {
				if a.Finish < b.Finish {
					return -1
				}
				return 1
			}
			return 0
		})
		if len(ids) != 12 || !slices.IsSorted(ids) {
			t.Fatalf("%s: jobs in order %v", name, ids)
		}
		if slices.IsSortedFunc(finishOrder, func(a, b JobResult) int { return strings.Compare(a.Job.ID, b.Job.ID) }) {
			t.Fatalf("%s: jobs finished in ID order; the test shows nothing", name)
		}
	}
}
