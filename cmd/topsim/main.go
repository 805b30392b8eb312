// Command topsim runs the trace-driven cluster simulator: it either
// generates a workload (§5.3) or replays a JSON trace, schedules it under
// one or all policies, and prints the comparison report. With -record it
// writes the run back out as a trace for later replay.
//
//	topsim -machines 5 -jobs 100 -policy all
//	topsim -trace run.json -policy topo-p
//	topsim -machines 5 -jobs 100 -policy topo-p -record out.json
package main

import (
	"flag"
	"fmt"
	"os"

	"gputopo/internal/job"
	"gputopo/internal/metrics"
	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/topology"
	"gputopo/internal/trace"
	"gputopo/internal/workload"
)

func main() {
	machines := flag.Int("machines", 5, "number of Minsky machines in the cluster")
	jobs := flag.Int("jobs", 100, "number of jobs to generate (ignored with -trace)")
	policy := flag.String("policy", "all", "scheduling policy: fcfs, bf, topo, topo-p, all")
	seed := flag.Uint64("seed", 42, "workload generation seed")
	rate := flag.Float64("rate", 10, "Poisson arrival rate, jobs per minute")
	traceFile := flag.String("trace", "", "JSON trace to replay instead of generating")
	record := flag.String("record", "", "write the (last) run as a JSON trace to this file")
	timeline := flag.Bool("timeline", false, "print the GPU allocation timeline")
	flag.Parse()

	if err := run(*machines, *jobs, *policy, *seed, *rate, *traceFile, *record, *timeline); err != nil {
		fmt.Fprintln(os.Stderr, "topsim:", err)
		os.Exit(1)
	}
}

func run(machines, jobCount int, policyName string, seed uint64, rate float64, traceFile, record string, timeline bool) error {
	topo := topology.Cluster(machines, topology.KindMinsky)

	var stream []*job.Job
	var err error
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			return err
		}
		stream, err = tr.ReplayJobs()
		if err != nil {
			return err
		}
		fmt.Printf("replaying trace %q: %d jobs\n\n", tr.Name, len(stream))
	} else {
		stream, err = workload.Generate(workload.GenConfig{
			Jobs:        jobCount,
			ArrivalRate: rate,
			Seed:        seed,
		}, topo)
		if err != nil {
			return err
		}
	}

	var policies []schedcore.Policy
	if policyName == "all" {
		policies = schedcore.AllPolicies()
	} else {
		p, err := schedcore.ParsePolicy(policyName)
		if err != nil {
			return err
		}
		policies = []schedcore.Policy{p}
	}

	var results []*simulator.Result
	for _, pol := range policies {
		res, err := simulator.Run(simulator.Config{Topology: topo, Policy: pol}, stream)
		if err != nil {
			return fmt.Errorf("%s: %w", pol, err)
		}
		results = append(results, res)
		if timeline {
			fmt.Println(metrics.Timeline(res, topo.NumGPUs(), 72))
		}
	}

	fmt.Println(metrics.CompareRuns(results))
	fmt.Println(metrics.SlowdownChart("JOB'S QOS — slowdown, worst to best", results, false, 64, 10))
	fmt.Println(metrics.SlowdownChart("JOB'S QOS + WAITING TIME", results, true, 64, 10))

	if record != "" {
		last := results[len(results)-1]
		t := trace.FromRun("topsim", topo.Name, last)
		f, err := os.Create(record)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Write(f, t); err != nil {
			return err
		}
		fmt.Printf("recorded trace to %s\n", record)
	}
	return nil
}
