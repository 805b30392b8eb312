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
				if _, err := c.place.placeTopoAware(jobs[i%len(jobs)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}
