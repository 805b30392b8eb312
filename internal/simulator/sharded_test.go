package simulator

import (
	"strings"
	"testing"

	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/schedcore"
	"gputopo/internal/topology"
)

// TestRunShardedRejectsBadInput: each input RunSharded cannot run is
// refused with an error that names the fault, before any domain runs.
func TestRunShardedRejectsBadInput(t *testing.T) {
	minsky := func(n int) *topology.Topology { return topology.Cluster(n, topology.KindMinsky) }
	two := []Shard{
		{Topology: minsky(1), Machines: []int{0}},
		{Topology: minsky(1), Machines: []int{1}},
	}
	small := []*job.Job{job.New("a", perfmodel.AlexNet, 4, 2, 0, 0)}
	for _, c := range []struct {
		name   string
		global *topology.Topology
		shards []Shard
		jobs   []*job.Job
		want   string
	}{
		{"nil global topology", nil, two, small, "nil topology"},
		{"no shards", minsky(2), nil, small, "at least one domain"},
		{"shard without topology", minsky(2), []Shard{two[0], {Machines: []int{1}}}, small, "domain 1: nil topology"},
		{"machine list shorter than the shard", minsky(2), []Shard{two[0], {Topology: minsky(2), Machines: []int{1}}}, small, "domain 1: topology has 2 machines, 1 global indices given"},
		{"machine out of range", minsky(2), []Shard{two[0], {Topology: minsky(1), Machines: []int{5}}}, small, "global machine index 5 out of range"},
		{"machine in two shards", minsky(2), []Shard{two[0], {Topology: minsky(1), Machines: []int{0}}}, small, "global machine 0 belongs to two domains"},
		{"shards short of the topology", topology.Cluster(3, topology.KindMinsky), two[:1], small, "the shards cover 1 of the topology's 3 machines"},
		{"shard machine past the topology", minsky(1), two, small, "domain 1: global machine 1 is outside the 1-machine topology"},
		{"shape mismatch", topology.Cluster(2, topology.KindDGX1), two, small, "domain 0: machine shape mismatch: local machine 0 has 4 GPUs, global machine 0 has 8"},
		{"job no domain admits", minsky(2), two, []*job.Job{job.New("big", perfmodel.AlexNet, 4, 8, 0, 0)}, "job big (gpus=8"},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := RunSharded(Config{Topology: c.global, Policy: schedcore.TopoAware}, c.shards, c.jobs, 1)
			if err == nil {
				t.Fatalf("accepted: %d jobs run", len(res.Jobs))
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %q", err, c.want)
			}
		})
	}
}
