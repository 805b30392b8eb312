package schedcore

import (
	"fmt"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/topology"
)

// BenchmarkClassSweep times the TOPO-AWARE single-node class sweep alone
// (placer.placeTopoAware) on a fixed, half-full fleet: the state never
// changes, so each iteration is one sweep over the same classes — bounds
// from the memo, the heap, and the mapper runs the bounds do not prune —
// with no allocation to undo and no timer call.
func BenchmarkClassSweep(b *testing.B) {
	for _, machines := range []int{64, 1024} {
		b.Run(fmt.Sprintf("minsky:%d", machines), func(b *testing.B) {
			topo := topology.Cluster(machines, topology.KindMinsky)
			mapper, err := core.NewMapper(profile.Generate(topo, 4), core.DefaultWeights())
			if err != nil {
				b.Fatal(err)
			}
			c := New(TopoAware, cluster.NewState(topo), mapper)
			for i := 0; c.State().FreeGPUCount() > topo.NumGPUs()/2; i++ {
				gpus := min([]int{1, 2, 4, 2, 1}[i%5], c.State().MaxFreeGPUs())
				if err := c.Submit(job.New(fmt.Sprintf("fill-%d", i), perfmodel.NN(i%3), 1<<(i%6), gpus, 0, 0)); err != nil {
					b.Fatal(err)
				}
				if ds := c.Schedule(); len(ds) != 1 || ds[0].Postponed {
					b.Fatal("fill placement failed")
				}
			}
			var jobs []*job.Job
			for i, gpus := range []int{1, 2, 4, 2, 1} {
				// The policy spreads, so whole machines run out long before
				// GPUs do: ask for no more than one machine still offers.
				gpus = min(gpus, c.State().MaxFreeGPUs())
				jobs = append(jobs, job.New(fmt.Sprintf("bench-%d", i), perfmodel.NN(i%3), 1<<(i%6), gpus, 0, 0))
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if c.place.placeTopoAware(jobs[i%len(jobs)]) == nil {
					b.Fatal("no placement")
				}
				i++
			}
		})
	}
}

// BenchmarkWakeWalk times the wake-up index's walk: a TOPO-AWARE-P core on
// sim-contended's 60-machine mix with parked jobs. Each iteration releases
// one 2-GPU job and runs one Schedule round, which wakes the head of the
// 2-GPU bucket onto the freed GPUs and finds every other bucket still
// blocked. The round's placement is then undone through the exported API —
// the woken job is released and parked again, the released one restored —
// so every iteration sees the same state.
//
//   - dense: every GPU running, 16 jobs parked under each of 13 GPU
//     counts, single-node ones of 2 to 8 GPUs and multi-node ones of up
//     to 64.
//   - sparse: one GPU left free on every machine (60 free, at most 3 on
//     one machine once the release lands), and only two jobs parked: a
//     single-node 2-GPU one and a multi-node 64-GPU one. The free count
//     reaches every multi-node GPU count below 64, all of them empty.
func BenchmarkWakeWalk(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		benchWakeWalk(b, 0, []int{2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64}, 16)
	})
	b.Run("sparse", func(b *testing.B) {
		benchWakeWalk(b, 1, []int{2, 64}, 1)
	})
}

// benchWakeWalk fills every machine with 2-GPU jobs (1-GPU where only one
// GPU is left to fill) but its last keepFree GPUs, parks perSize jobs under
// each GPU count in sizes (single-node up to 8 GPUs), and times the
// release-and-wake round BenchmarkWakeWalk describes.
func benchWakeWalk(b *testing.B, keepFree int, sizes []int, perSize int) {
	specs, err := topology.ParseMix("minsky:24+dgx1:12+pcie:24")
	if err != nil {
		b.Fatal(err)
	}
	topo, err := topology.HeterogeneousCluster(specs)
	if err != nil {
		b.Fatal(err)
	}
	mapper, err := core.NewMapper(profile.Generate(topo, 4), core.DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	c := New(TopoAwareP, cluster.NewState(topo), mapper)
	var freed *job.Job
	var freedGPUs []int
	n := 0
	for m := 0; m < topo.NumMachines(); m++ {
		all := topo.GPUsOfMachine(m)
		for gpus := all[:len(all)-keepFree]; len(gpus) > 0; n++ {
			size := min(2, len(gpus))
			j := job.New(fmt.Sprintf("r%03d", n), perfmodel.NN(n%3), 1, size, 0, 0)
			if err := c.Restore(j, gpus[:size], 0); err != nil {
				b.Fatal(err)
			}
			if freed == nil && size == 2 {
				freed, freedGPUs = j, gpus[:size]
			}
			gpus = gpus[size:]
		}
	}
	park := func(j *job.Job) {
		if err := c.RestoreQueued(QueuedEntry{Job: j, Parked: true}); err != nil {
			b.Fatal(err)
		}
	}
	var woken *job.Job
	arrival := 1.0
	for _, size := range sizes {
		for k := 0; k < perSize; k++ {
			j := job.New(fmt.Sprintf("q%02d-%02d", size, k), perfmodel.NN(k%3), 1, size, 0, arrival)
			j.SingleNode = size <= 8
			if woken == nil {
				woken = j
			}
			park(j)
			arrival++
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := c.Release(freed.ID); err != nil {
			b.Fatal(err)
		}
		if ds := c.Schedule(); len(ds) != 1 || ds[0].Postponed || ds[0].Job != woken {
			b.Fatal("the release did not wake exactly the 2-GPU bucket's head")
		}
		if err := c.Release(woken.ID); err != nil {
			b.Fatal(err)
		}
		if err := c.Restore(freed, freedGPUs, 0); err != nil {
			b.Fatal(err)
		}
		park(woken)
	}
}
