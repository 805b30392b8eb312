package trace

import (
	"bytes"
	"strings"
	"testing"

	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/topology"
	"gputopo/internal/workload"
)

func TestFromJobsReplayRoundTrip(t *testing.T) {
	jobs := workload.Table1()
	tr := FromJobs("table1", "Power8-Minsky", jobs)
	if len(tr.Jobs) != 6 {
		t.Fatalf("records = %d", len(tr.Jobs))
	}
	back, err := tr.ReplayJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(jobs) {
		t.Fatalf("replayed %d jobs", len(back))
	}
	for i := range jobs {
		if back[i].ID != jobs[i].ID || back[i].Model != jobs[i].Model ||
			back[i].BatchSize != jobs[i].BatchSize || back[i].GPUs != jobs[i].GPUs ||
			back[i].MinUtility != jobs[i].MinUtility || back[i].Arrival != jobs[i].Arrival ||
			back[i].Iterations != jobs[i].Iterations {
			t.Fatalf("job %d changed in round trip", i)
		}
	}
}

func TestFromRunRecordsOutcomes(t *testing.T) {
	topo := topology.Power8Minsky()
	res, err := simulator.Run(simulator.Config{Topology: topo, Policy: schedcore.TopoAwareP}, workload.Table1())
	if err != nil {
		t.Fatal(err)
	}
	tr := FromRun("fig8", topo.Name, res)
	if tr.Policy != "TOPO-AWARE-P" {
		t.Fatalf("policy = %q", tr.Policy)
	}
	for _, r := range tr.Jobs {
		if !r.Placed {
			t.Fatalf("record %s not marked placed", r.ID)
		}
		if r.Finish <= r.Start {
			t.Fatalf("record %s times inverted", r.ID)
		}
		if len(r.GPUList) == 0 {
			t.Fatalf("record %s without GPUs", r.ID)
		}
	}
	// Records are sorted by ID.
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i-1].ID > tr.Jobs[i].ID {
			t.Fatal("records unsorted")
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := FromJobs("rt", "topo", workload.Table1())
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "rt" || back.Topology != "topo" || len(back.Jobs) != 6 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"name":"empty","jobs":[]}`)); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestReplayRejectsUnknownModel(t *testing.T) {
	tr := &Trace{Name: "bad", Jobs: []JobRecord{{
		ID: "x", Model: "ResNet", BatchSize: 1, GPUs: 1, MinUtility: 0.3,
	}}}
	if _, err := tr.ReplayJobs(); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestReplayRejectsInvalidRecord(t *testing.T) {
	tr := &Trace{Name: "bad", Jobs: []JobRecord{{
		ID: "x", Model: "AlexNet", BatchSize: 1, GPUs: 0, MinUtility: 0.3,
	}}}
	if _, err := tr.ReplayJobs(); err == nil {
		t.Fatal("zero-GPU record accepted")
	}
}

func TestReplaySortsByArrival(t *testing.T) {
	tr := &Trace{Name: "shuffled", Jobs: []JobRecord{
		{ID: "late", Model: "AlexNet", BatchSize: 1, GPUs: 1, MinUtility: 0.3, Arrival: 50, Iterations: 10},
		{ID: "early", Model: "AlexNet", BatchSize: 1, GPUs: 1, MinUtility: 0.3, Arrival: 5, Iterations: 10},
	}}
	jobs, err := tr.ReplayJobs()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].ID != "early" {
		t.Fatal("replay did not sort by arrival")
	}
}

func TestReplayedTraceSimulatesIdentically(t *testing.T) {
	// Record a run, replay the trace, and verify the simulation repeats
	// exactly — the trace-driven workflow of §5.3.
	topo := topology.Power8Minsky()
	original, err := simulator.Run(simulator.Config{Topology: topo, Policy: schedcore.FCFS}, workload.Table1())
	if err != nil {
		t.Fatal(err)
	}
	tr := FromRun("rec", topo.Name, original)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := back.ReplayJobs()
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := simulator.Run(simulator.Config{Topology: topo, Policy: schedcore.FCFS}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Makespan != original.Makespan {
		t.Fatalf("replayed makespan %.3f != original %.3f", replayed.Makespan, original.Makespan)
	}
}

func TestSummarize(t *testing.T) {
	topo := topology.Power8Minsky()
	res, err := simulator.Run(simulator.Config{Topology: topo, Policy: schedcore.FCFS}, workload.Table1())
	if err != nil {
		t.Fatal(err)
	}
	tr := FromRun("s", topo.Name, res)
	s := tr.Summarize()
	if s.Jobs != 6 {
		t.Fatalf("jobs = %d", s.Jobs)
	}
	if s.TotalGPUs != 9 { // 1+1+1+2+2+2
		t.Fatalf("total GPUs = %d", s.TotalGPUs)
	}
	if s.ByModel["AlexNet"] != 4 {
		t.Fatalf("AlexNet count = %d", s.ByModel["AlexNet"])
	}
	if s.PlacedRecords != 6 || s.MeanRun <= 0 {
		t.Fatalf("placed stats: %+v", s)
	}
	if s.Span <= 0 {
		t.Fatal("span not computed")
	}
	// Empty trace summary is safe.
	empty := (&Trace{}).Summarize()
	if empty.Jobs != 0 {
		t.Fatal("empty summary wrong")
	}
}
