package core

import (
	"fmt"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/topology"
)

// BenchmarkPlaceInto measures one DRB mapping with its scoring into a
// reused Placement, the way the scheduler's class sweep calls it: g GPUs
// over every free GPU of an empty and of a half-occupied Minsky (one
// one-GPU job on each socket, so a 4-GPU job no longer fits), g = 8 over
// an empty DGX-1, and an 8-GPU job over the free GPUs of four Minskys
// with one GPU taken on each.
func BenchmarkPlaceInto(b *testing.B) {
	half := func(topo *topology.Topology) *cluster.State {
		st := cluster.NewState(topo)
		for m := 0; m < topo.NumMachines(); m++ {
			gpus := topo.GPUsOfMachine(m)
			taken := []int{gpus[0]}
			if topo.NumMachines() == 1 {
				taken = append(taken, gpus[len(gpus)-1])
			}
			for _, pos := range taken {
				tr := perfmodel.Traits{Model: perfmodel.NN(pos % perfmodel.NumNN), Class: 1, GPUs: 1}
				if err := st.Allocate(fmt.Sprintf("r%d", pos), []int{pos}, 1, tr); err != nil {
					b.Fatal(err)
				}
			}
		}
		return st
	}
	minsky, dgx1, minsky4 := topology.Power8Minsky(), topology.DGX1(), topology.Cluster(4, topology.KindMinsky)
	for _, tc := range []struct {
		name string
		st   *cluster.State
		gpus int
	}{
		{"minsky-empty/g1", cluster.NewState(minsky), 1},
		{"minsky-empty/g2", cluster.NewState(minsky), 2},
		{"minsky-empty/g4", cluster.NewState(minsky), 4},
		{"minsky-half/g1", half(minsky), 1},
		{"minsky-half/g2", half(minsky), 2},
		{"dgx1-empty/g8", cluster.NewState(dgx1), 8},
		{"minsky:4-multinode/g8", half(minsky4), 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			topo := tc.st.Topology()
			mapper, err := NewMapper(profile.Generate(topo, 4), DefaultWeights())
			if err != nil {
				b.Fatal(err)
			}
			j := job.New("bench", perfmodel.AlexNet, 1, tc.gpus, 0.5, 0)
			free := tc.st.FreeGPUs()
			var pl Placement
			// One untimed call fills the mapper's pool and pl's array, so
			// a single-iteration pass reads the steady state.
			if err := mapper.PlaceInto(&pl, j, tc.st, free); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mapper.PlaceInto(&pl, j, tc.st, free); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
