package simulator

import (
	"cmp"
	stdheap "container/heap"
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

// popped is what a test reads off a popped event.
type popped struct {
	time float64
	kind eventKind
	slot int32
	job  string
}

func (ev event) read() popped {
	p := popped{time: ev.time, kind: ev.kind, slot: ev.slot}
	if ev.kind == evArrival {
		p.job, p.slot = ev.job.ID, 0
	}
	return p
}

// arrivalsAt returns n valid jobs, in ID order, arriving at the given
// times in turn.
func arrivalsAt(n int, times ...float64) []*job.Job {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = job.New(fmt.Sprintf("j%03d", i), perfmodel.AlexNet, 4, 1, 0, times[i%len(times)])
	}
	return jobs
}

// TestEventQueuePopsInStableOrder: arrivals queued up front and finish
// events armed over few distinct times, interleaved with pops, come out
// exactly in the order a stable sort on (time, kind) puts the outstanding
// events in — (time, kind, queue order).
func TestEventQueuePopsInStableOrder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs := arrivalsAt(200, 1.5, 0, 1, 0.5, 1)
		rng.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
		var q eventQueue
		if err := q.queueArrivals(jobs); err != nil {
			t.Fatal(err)
		}
		var outstanding []popped // in queue order
		for _, j := range jobs {
			outstanding = append(outstanding, popped{time: j.Arrival, kind: evArrival, job: j.ID})
		}
		var free []int32 // slots without a finish event
		for r := range jobs {
			free = append(free, int32(r))
		}
		ties := 0
		check := func(step int) {
			t.Helper()
			slices.SortStableFunc(outstanding, func(a, b popped) int {
				if c := cmp.Compare(a.time, b.time); c != 0 {
					return c
				}
				return int(a.kind) - int(b.kind)
			})
			ev, ok := q.pop()
			got, want := ev.read(), outstanding[0]
			outstanding = outstanding[1:]
			if !ok || got != want {
				t.Fatalf("seed %d step %d: popped %+v (ok %v), want %+v", seed, step, got, ok, want)
			}
			if got.kind == evFinish {
				free = append(free, got.slot)
			}
			if len(outstanding) > 0 && outstanding[0].time == got.time && outstanding[0].kind == got.kind {
				ties++
			}
		}
		for step := 0; step < 400; step++ {
			if len(outstanding) == 0 || len(free) > 0 && rng.Intn(3) > 0 {
				i := rng.Intn(len(free))
				slot := free[i]
				free = slices.Delete(free, i, i+1)
				at := float64(rng.Intn(4)) / 2
				q.arm(slot, at)
				outstanding = append(outstanding, popped{time: at, kind: evFinish, slot: slot})
				continue
			}
			check(step)
		}
		for len(outstanding) > 0 {
			check(-1)
		}
		if _, ok := q.pop(); ok {
			t.Fatalf("seed %d: events left after draining", seed)
		}
		if ties < 20 {
			t.Fatalf("seed %d: only %d pops met an equal (time, kind) behind them", seed, ties)
		}
	}
}

// lazyEvent is an event of lazyQueue.
type lazyEvent struct {
	popped
	seq, gen int
}

// lazyQueue is the reference for eventQueue: the future-event list as it
// stood before events were armed in place. Every event sits in one heap on
// (time, kind, push order), arrivals included; re-arming a job pushes a
// fresh event under a new generation, and an event whose generation is
// not its job's current one is stale and skipped when it pops.
type lazyQueue struct {
	events []lazyEvent
	pushed int
	gen    []int
	live   []bool // the job's current generation has an event queued
}

func (q lazyQueue) Len() int { return len(q.events) }
func (q lazyQueue) Less(i, k int) bool {
	a, b := q.events[i], q.events[k]
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}
func (q lazyQueue) Swap(i, k int) { q.events[i], q.events[k] = q.events[k], q.events[i] }
func (q *lazyQueue) Push(x any)   { q.events = append(q.events, x.(lazyEvent)) }
func (q *lazyQueue) Pop() any {
	x := q.events[len(q.events)-1]
	q.events = q.events[:len(q.events)-1]
	return x
}

func (q *lazyQueue) push(p popped, gen int) {
	stdheap.Push(q, lazyEvent{popped: p, seq: q.pushed, gen: gen})
	q.pushed++
}

func (q *lazyQueue) arm(slot int32, t float64) {
	q.gen[slot]++
	q.live[slot] = true
	q.push(popped{time: t, kind: evFinish, slot: slot}, q.gen[slot])
}

func (q *lazyQueue) disarm(slot int32) { q.gen[slot]++; q.live[slot] = false }

func (q *lazyQueue) pop() (popped, bool) {
	for q.Len() > 0 {
		ev := stdheap.Pop(q).(lazyEvent)
		if ev.kind == evFinish {
			if ev.gen != q.gen[ev.slot] {
				continue // stale
			}
			q.live[ev.slot] = false
		}
		return ev.popped, true
	}
	return popped{}, false
}

// TestEventQueueMatchesLazyDeletion: on random streams of arms, re-arms,
// disarms and pops over few distinct times, the event queue pops
// exactly the live events the lazy-deletion reference pops, in the same
// order.
func TestEventQueueMatchesLazyDeletion(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jobs := arrivalsAt(20, 2, 0, 1, 0.5, 1)
		var q eventQueue
		if err := q.queueArrivals(jobs); err != nil {
			t.Fatal(err)
		}
		ref := lazyQueue{gen: make([]int, len(jobs)), live: make([]bool, len(jobs))}
		for _, j := range jobs {
			ref.push(popped{time: j.Arrival, kind: evArrival, job: j.ID}, 0)
		}
		pops, rearms := 0, 0
		for step := 0; step < 600; step++ {
			slot := int32(rng.Intn(len(jobs)))
			at := float64(rng.Intn(5)) / 2
			op := rng.Intn(9)
			if op < 2 {
				// Re-arm: move slot on to the next job with an event, if any.
				for k := 0; k < len(jobs) && !ref.live[slot]; k++ {
					slot = (slot + 1) % int32(len(jobs))
				}
			}
			switch {
			case op < 4:
				if ref.live[slot] {
					rearms++
				}
				q.arm(slot, at)
				ref.arm(slot, at)
			case op < 5:
				q.disarm(slot)
				ref.disarm(slot)
			default:
				ev, ok := q.pop()
				want, wantOK := ref.pop()
				if got := ev.read(); ok != wantOK || ok && got != want {
					t.Fatalf("seed %d step %d: popped %+v (ok %v), reference %+v (ok %v)", seed, step, got, ok, want, wantOK)
				}
				pops++
			}
		}
		for {
			ev, ok := q.pop()
			want, wantOK := ref.pop()
			if got := ev.read(); ok != wantOK || ok && got != want {
				t.Fatalf("seed %d draining: popped %+v (ok %v), reference %+v (ok %v)", seed, got, ok, want, wantOK)
			}
			if !ok {
				break
			}
		}
		if pops < 100 || rearms < 50 {
			t.Fatalf("seed %d: only %d pops and %d re-arms", seed, pops, rearms)
		}
	}
}

// TestEventQueueAllocatesNothing: once the heap's array has room, an arm,
// a re-arm and a pop allocate nothing.
func TestEventQueueAllocatesNothing(t *testing.T) {
	var q eventQueue
	if err := q.queueArrivals(arrivalsAt(64, 1e6)); err != nil {
		t.Fatal(err)
	}
	for r := int32(0); r < 63; r++ {
		q.arm(r, float64(r%7))
	}
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		n++
		q.arm(int32(n%63), float64(n%11))
		ev, _ := q.pop()
		q.arm(ev.slot, float64(n%13))
	})
	if allocs != 0 {
		t.Fatalf("arm+pop allocates %v objects, want 0", allocs)
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

// BenchmarkEventQueue is the event traffic of one finish on the contended
// grid's queue (15 000 jobs, about 200 running): per iteration, the
// earliest finish pops, three co-runners are re-armed and the freed slot
// is armed again for the job that takes it.
func BenchmarkEventQueue(b *testing.B) {
	const jobs, running = 15_000, 192
	var q eventQueue
	// The arrivals lie past any finish, so the queue holds them throughout.
	if err := q.queueArrivals(arrivalsAt(jobs, 1e12)); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for r := int32(0); r < running; r++ {
		q.arm(r, 1000*rng.Float64())
	}
	b.ReportAllocs()
	for b.Loop() {
		ev, _ := q.pop()
		for k := 0; k < 3; k++ {
			q.arm(int32(rng.Intn(running)), ev.time+1000*rng.Float64())
		}
		q.arm(ev.slot, ev.time+1000*rng.Float64())
	}
}
