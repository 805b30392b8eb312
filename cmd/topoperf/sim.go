package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"gputopo/internal/job"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/schedcore/domains"
	"gputopo/internal/simulator"
	"gputopo/internal/stats"
	"gputopo/internal/sweep"
	"gputopo/internal/topology"
	"gputopo/internal/workload"
)

// simGrid is one sweep.Run of a simulator workload.
type simGrid struct {
	label string
	grid  sweep.Grid
}

const contendedMix = "mix[minsky:24+dgx1:12+pcie:24]"

// simGridsFor builds a simulator workload's grids at one replica; the
// untraced run repeats them with fresh replica seeds until its time is
// up. Job counts are the largest that let at least two passes fit a
// 20-second run on a 2-core box: the cost of the contended points is
// superlinear in queue depth.
func simGridsFor(name string, smoke bool) ([]simGrid, error) {
	base := sweep.Grid{Engine: sweep.EngineSim, Source: sweep.SourceGenerated, Replicas: 1}
	switch name {
	case "sim-scenario2":
		g := base
		g.Name = "topoperf-scenario2"
		g.Policies = []schedcore.Policy{schedcore.TopoAware, schedcore.TopoAwareP}
		g.Topologies = []sweep.TopologySpec{{Builder: "minsky", Machines: 1000}}
		g.Jobs = []int{scenario2Jobs}
		g.Domains = []string{"", "hash:4"}
		g.RatePerMachine = scenario2Rate
		if smoke {
			g.Topologies[0].Machines = 40
			g.Jobs = []int{200}
		}
		return []simGrid{{"scenario2", g}}, nil
	case "sim-contended":
		mix := contendedMix
		if smoke {
			mix = "mix[minsky:4+dgx1:2+pcie:4]"
		}
		ts, err := sweep.ParseTopologyArg(mix)
		if err != nil {
			return nil, err
		}
		q := base
		q.Name = "topoperf-contended-queue"
		q.Topologies = []sweep.TopologySpec{ts}
		q.Policies = schedcore.AllPolicies()
		q.Disciplines = []string{"fifo", "priority"}
		q.Jobs = []int{contendedQueueJobs}
		q.PriorityShare = 0.2
		q.RatePerMachine = 20
		q.Thresholds = []float64{contendedThreshold}
		p := q
		p.Name = "topoperf-contended-preempt"
		p.Policies = []schedcore.Policy{schedcore.TopoAwareP}
		p.Disciplines = []string{"priority-preempt"}
		p.Jobs = []int{contendedPreemptJobs}
		if smoke {
			q.Jobs, p.Jobs = []int{200}, []int{200}
		}
		return []simGrid{{"queue", q}, {"preempt", p}}, nil
	}
	return nil, fmt.Errorf("not a simulator workload: %s", name)
}

// Sizes and rates. What a simulated point costs depends on its seed: a
// job stream that leaves a few jobs postponed for low utility makes
// TOPO-AWARE-P re-decide them every round, and how many such jobs there
// are is chaotic. The benchmark must read the same on any seed, so the
// simulator workloads stay out of that regime (eight seeds each on the
// 2-core sandbox):
//
//   - scenario2Rate 0.8 jobs/min/machine keeps the 1000-machine cluster
//     just under capacity: decisions ≈ jobs and the TOPO-AWARE-P point
//     cost 6.1–7.4 s (sd 7%). At 2 the cluster is twice over capacity and
//     the same point cost 4.4–8.8 s (sd 24%).
//   - contendedThreshold 0.3 overrides every multi-GPU job's minimum
//     utility (0.5 as generated). At 0.5 and 16× overload one 6000-job
//     TOPO-AWARE-P point made 140k–210k decisions and cost 2.1–2.9 s, at
//     12000 jobs 3.0–7.3 s; at 0.3 decisions ≈ jobs, a 40000-job point
//     costs 0.72–0.84 s, and what it measures is the queue machinery:
//     1.5 billion wake-up-index skips.
//   - scenario2Jobs 5000, not the paper's 10000, so that three passes
//     fit a 20-second run.
const (
	scenario2Rate        = 0.8
	scenario2Jobs        = 5000
	contendedThreshold   = 0.3
	contendedQueueJobs   = 15000
	contendedPreemptJobs = 3000
)

// passSeed derives the replica seed of one pass over the grids. Pass 0
// is the one whose digest and simulated statistics are printed.
func passSeed(seed uint64, name string, pass int) uint64 {
	return stats.DeriveSeed(stats.DeriveSeed(seed, name), fmt.Sprintf("pass-%d", pass))
}

// checkSimResult validates one simulated point: every job finished once
// on as many GPUs as it asked for, and no GPU ran two jobs at once.
func checkSimResult(res *simulator.Result, wantJobs int) error {
	if len(res.Jobs) != wantJobs {
		return fmt.Errorf("%d of %d jobs finished", len(res.Jobs), wantJobs)
	}
	seen := make(map[string]bool, len(res.Jobs))
	for _, jr := range res.Jobs {
		if seen[jr.Job.ID] {
			return fmt.Errorf("job %s finished twice", jr.Job.ID)
		}
		seen[jr.Job.ID] = true
		if len(jr.GPUs) != jr.Job.GPUs {
			return fmt.Errorf("job %s asked %d GPUs, ran on %v", jr.Job.ID, jr.Job.GPUs, jr.GPUs)
		}
	}
	type busy struct {
		start, finish float64
		id            string
	}
	perGPU := map[int][]busy{}
	for _, iv := range res.Timeline {
		for _, g := range iv.GPUs {
			perGPU[g] = append(perGPU[g], busy{iv.Start, iv.Finish, iv.JobID})
		}
	}
	gpus := make([]int, 0, len(perGPU))
	for g := range perGPU {
		gpus = append(gpus, g)
	}
	sort.Ints(gpus)
	for _, g := range gpus {
		ivs := perGPU[g]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].finish {
				return fmt.Errorf("GPU %d ran %s until %.3f and %s from %.3f", g, ivs[i-1].id, ivs[i-1].finish, ivs[i].id, ivs[i].start)
			}
		}
	}
	return nil
}

// gridRun is one sweep.Run with what the benchmark observed around it.
type gridRun struct {
	report   *sweep.Report
	json     []byte
	wall     time.Duration // sweep.Run + Report.JSON()
	jsonTime time.Duration
	points   []time.Duration // wall per point, in completion order
	// With a reference kernel: the CPU time of the sweep and of the JSON,
	// and the kernel read before the first point and after every point.
	cpu      time.Duration
	readings []float64
}

// runGrid executes one grid on one worker: one worker makes the figure a
// per-core cost and, on the 2-core sandbox, was also the steadier choice.
// kernel, when not nil, is read between the points.
func runGrid(g sweep.Grid, runner sweep.Runner, kernel *refKernel) (*gridRun, error) {
	gr := &gridRun{}
	var (
		cpu0    time.Duration // process CPU time when the current stretch of work began
		reading time.Duration // wall clock spent reading the kernel since start
	)
	read := func() {
		if kernel != nil {
			t := time.Now()
			gr.readings = append(gr.readings, kernel.read(refUnitsPerRead))
			reading += time.Since(t)
			cpu0 = processCPU()
		}
	}
	// lap closes the stretch of work since the last reading with another.
	lap := func() {
		if kernel != nil {
			gr.cpu += processCPU() - cpu0
			read()
		}
	}
	read()
	reading = 0
	start := time.Now()
	last := start
	rep, err := sweep.Run(g, sweep.Options{Workers: 1, Runner: runner, Progress: func(done, total int) {
		now := time.Now()
		gr.points = append(gr.points, now.Sub(last))
		lap()
		last = time.Now()
	}})
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if gr.json, err = rep.JSON(); err != nil {
		return nil, err
	}
	gr.jsonTime = time.Since(t)
	lap()
	gr.wall = time.Since(start) - reading
	gr.report = rep
	return gr, nil
}

// checkReport runs the per-point checks and returns the simulated jobs
// finished.
func checkReport(rep *sweep.Report, chk *checker) int {
	jobs := 0
	for i := range rep.Points {
		pr := &rep.Points[i]
		jobs += pr.JobsFinished
		if err := checkSimResult(pr.Sim, pr.Point.Jobs); err != nil {
			chk.failf("%s point %d (%s/%s/%s): %v", rep.Grid.Name, pr.Index, pr.Policy, pr.Topology.Key(), pr.Discipline, err)
		}
	}
	return jobs
}

// simStats are the deterministic statistics of a pass: the mean makespan
// of the TOPO-AWARE-P points and the SLO violations of both topology-
// aware policies.
func simStats(reports []*sweep.Report) (makespan float64, slo int) {
	var spans []float64
	for _, rep := range reports {
		for _, pr := range rep.Points {
			if pr.Policy == schedcore.TopoAwareP {
				spans = append(spans, pr.Makespan)
			}
			if pr.Policy == schedcore.TopoAwareP || pr.Policy == schedcore.TopoAware {
				slo += pr.SLOViolations
			}
		}
	}
	return stats.Mean(spans), slo
}

// simSubstrates builds, directly and without any cache, what the grids'
// points run on: every topology (and its domain shards) with its profile
// store, and one job stream per grid. This is the simulator's set-up.
func simSubstrates(grids []simGrid, seed uint64) (build, profiles, jobsGen time.Duration, err error) {
	for _, sg := range grids {
		for _, ts := range sg.grid.Topologies {
			specs := []sweep.TopologySpec{ts}
			for _, dom := range sg.grid.Domains {
				if dom == "" {
					continue
				}
				sharded := ts
				sharded.Domains = dom
				_, subs, _, err := sharded.PartitionDomains(0)
				if err != nil {
					return 0, 0, 0, err
				}
				specs = append(specs, subs...)
			}
			for i, spec := range specs {
				t0 := time.Now()
				topo, err := spec.Build(spec.EffectiveMachines(1), false)
				if err != nil {
					return 0, 0, 0, err
				}
				t1 := time.Now()
				generateProfiles(topo)
				t2 := time.Now()
				build += t1.Sub(t0)
				profiles += t2.Sub(t1)
				if i > 0 {
					continue
				}
				gen := workload.GenConfig{Jobs: sg.grid.Jobs[0], Seed: seed, HighPriorityShare: sg.grid.PriorityShare,
					ArrivalRate: sg.grid.RatePerMachine * float64(topo.NumMachines())}
				if _, err := workload.Generate(gen, topo); err != nil {
					return 0, 0, 0, err
				}
				jobsGen += time.Since(t2)
			}
		}
	}
	return build, profiles, jobsGen, nil
}

// runSimUntraced is the untraced run of a simulator workload: set-up,
// then whole passes over the grids until the time is up.
func runSimUntraced(cfg runConfig, res *result) error {
	grids, err := simGridsFor(cfg.workload, cfg.smoke)
	if err != nil {
		return err
	}
	chk := &checker{}
	kernel := newRefKernel()
	var setups []stretch
	near := []float64{kernel.read(refUnitsPerRead)}
	setupStart := time.Now()
	for i := 0; i < cfg.setupRepeats() && (i < 3 || time.Since(setupStart) < simSetupBudget); i++ {
		st, err := timeStretch(func() error {
			_, _, _, err := simSubstrates(grids, passSeed(cfg.seed, cfg.workload, 0))
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, st)
	}
	near = append(near, kernel.read(refUnitsPerRead))

	var (
		before, after runtime.MemStats
		pointMs       []float64
		jobs, points  int
		sched         schedcore.Stats
		digest        = sha256.New()
		first         []*sweep.Report
		peakRSS       float64
		makespan      float64
		slo           int
		// per pass: simulated jobs per reference second, per wall-clock
		// second, and CPU microseconds per job
		perRefS, perWallS, cpuUs []float64
		slow                     []float64
	)
	runtime.ReadMemStats(&before)
	start := time.Now()
	passes := 0
	// A pass is the unit: every pass covers the same cells, so runs of
	// different lengths still measure the same mix, and the run's figures
	// are medians over its passes.
	for {
		var pass gridRun
		passJobs := 0
		for _, sg := range grids {
			g := sg.grid
			g.BaseSeed = passSeed(cfg.seed, cfg.workload, passes)
			gr, err := runGrid(g, nil, kernel)
			if err != nil {
				chk.failf("%s: %v", g.Name, err)
				points += len(g.Points())
				continue
			}
			passJobs += checkReport(gr.report, chk)
			pass.wall, pass.cpu, pass.readings = pass.wall+gr.wall, pass.cpu+gr.cpu, append(pass.readings, gr.readings...)
			points += len(gr.points)
			for _, d := range gr.points {
				pointMs = append(pointMs, float64(d)/float64(time.Millisecond))
			}
			for _, pr := range gr.report.Points {
				sched.Decisions += pr.Sim.SchedStats.Decisions
				sched.DecisionTime += pr.Sim.SchedStats.DecisionTime
			}
			if passes == 0 {
				digest.Write(gr.json)
				first = append(first, gr.report)
			}
		}
		slow = append(slow, pass.readings...)
		if passJobs > 0 {
			jobs += passJobs
			// A reading taken while the collector was still marking the
			// last point's garbage on the other core reads long; the host
			// does not change within a pass, so the pass's median reading
			// is how slow it was.
			perRefS = append(perRefS, float64(passJobs)/refSeconds(pass.cpu, pass.readings))
			perWallS = append(perWallS, float64(passJobs)/pass.wall.Seconds())
			cpuUs = append(cpuUs, float64(pass.cpu.Microseconds())/float64(passJobs))
		}
		if passes == 0 {
			// The high-water mark after set-up and one pass. Later
			// passes only add where the previous pass's garbage met the
			// collector's pacing: 63 to 106 MB over ten runs of three
			// passes, 48 to 55 MB after the first.
			if peakRSS, err = peakRSSMB(); err != nil {
				return err
			}
			makespan, slo = simStats(first)
			first = nil
		}
		passes++
		// Start another pass only if at least half of it fits in the
		// time left, going by the mean pass so far.
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*passes) > cfg.measure() {
			break
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if jobs == 0 {
		return fmt.Errorf("%s: no simulated job finished: %v", cfg.workload, chk.msgs)
	}

	sort.Float64s(pointMs)
	e2e := res.e2e
	setSetup(res, setups, near)
	e2e.set("ops_per_ref_s", median(perRefS), jobs)
	e2e.set("allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(jobs), jobs)
	e2e.set("peak_rss_mb", peakRSS, 0)
	res.setExtra("ops_per_s", median(perWallS), jobs)
	res.setExtra("cpu_us_per_op", median(cpuUs), jobs)
	res.setExtra("op_latency_ms", float64(sched.DecisionTime)/1e6/float64(max(sched.Decisions, 1)), sched.Decisions)
	res.setExtra("sim_makespan_s", makespan, 0)
	res.setExtra("sim_slo_violations", float64(slo), 0)
	res.digest = hex.EncodeToString(digest.Sum(nil))
	sort.Float64s(slow)
	res.notef("host slowdown median %.3f, from %.3f to %.3f over %d readings (CPU seconds per reference second)", median(slow), slow[0], slow[len(slow)-1], len(slow))
	res.notef("simulated jobs per reference second, pass by pass: %.0f", perRefS)
	res.notef("%d passes, %d points, %d simulated jobs in %.2fs on one worker; point times (ms) %.0f", passes, points, jobs, wall.Seconds(), pointMs)
	res.attempted, res.failed, res.failures = points, chk.failed, chk.msgs
	return nil
}

// tracedRunner is the benchmark-owned sweep runner: it does what the
// default runner does with public calls only, each stage a span under
// the point's span, and shares substrates across points the same way.
// One runner serves all of a workload's grids and sums over them.
type tracedRunner struct {
	tr    *tracer
	grid  sweep.Grid // the grid being run: its rate and priority share shape the job streams
	subs  map[string]*simSubstrate
	sched schedcore.Stats // summed over points
	// unshardedDecisionTime is the part of sched.DecisionTime spent on one
	// thread; the sharded points' domains decide concurrently.
	unshardedDecisionTime time.Duration
	// routed counts jobs per domain over the sharded points, for the
	// imbalance ratio; routeTime is what routing them cost.
	routed    []int
	routeTime time.Duration
	routedN   int
}

type simSubstrate struct {
	topo     *topology.Topology
	profiles *profile.Store
}

func (r *tracedRunner) substrate(ts sweep.TopologySpec, machines, parent, op int) (*simSubstrate, error) {
	key := fmt.Sprintf("%s/m%d", ts.Key(), machines)
	if s := r.subs[key]; s != nil {
		return s, nil
	}
	id := r.tr.begin("topology.build", parent, op)
	topo, err := ts.Build(machines, false)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = r.tr.begin("profile.generate", parent, op)
	store := generateProfiles(topo)
	r.tr.end(id)
	s := &simSubstrate{topo, store}
	r.subs[key] = s
	return s, nil
}

func (r *tracedRunner) run(p sweep.Point) (*sweep.RunOutput, error) {
	op := p.Index
	root := r.tr.begin("sweep.point", -1, op)
	defer r.tr.end(root)
	global := p.Topology
	global.Domains = ""
	sub, err := r.substrate(global, p.Machines, root, op)
	if err != nil {
		return nil, err
	}
	id := r.tr.begin("workload.generate", root, op)
	jobs, err := workload.Generate(workload.GenConfig{
		Jobs: p.Jobs, Seed: p.Seed, HighPriorityShare: r.grid.PriorityShare,
		ArrivalRate: r.grid.RatePerMachine * float64(p.Machines),
	}, sub.topo)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	if p.AlphaCC >= 0 {
		return nil, fmt.Errorf("the traced runner does not mirror the alpha axis (point %d)", p.Index)
	}
	if p.Threshold >= 0 {
		for _, j := range jobs {
			if j.GPUs > 1 {
				j.MinUtility = p.Threshold
			}
		}
	}
	disc, preempt, err := sweep.ParseDisciplineMode(p.Discipline)
	if err != nil {
		return nil, err
	}
	simCfg := simulator.Config{
		Topology: sub.topo, Policy: p.Policy, Profiles: sub.profiles, Seed: p.Seed,
		Discipline: disc, EnablePreemption: preempt,
	}
	var out *simulator.Result
	if p.Topology.Domains == "" {
		id = r.tr.begin("simulator.run", root, op)
		out, err = simulator.Run(simCfg, jobs)
		r.tr.end(id)
	} else {
		out, err = r.runSharded(simCfg, p, jobs, root)
	}
	if err != nil {
		return nil, err
	}
	s := out.SchedStats
	if p.Topology.Domains == "" {
		r.unshardedDecisionTime += s.DecisionTime
	}
	r.sched.Decisions += s.Decisions
	r.sched.Placements += s.Placements
	r.sched.GateSkips += s.GateSkips
	r.sched.WakeSkips += s.WakeSkips
	r.sched.Preemptions += s.Preemptions
	r.sched.Evictions += s.Evictions
	r.sched.DecisionTime += s.DecisionTime
	r.sched.PlaceCacheHits += s.PlaceCacheHits
	r.sched.PlaceCacheMisses += s.PlaceCacheMisses
	r.sched.PlaceCacheEvictions += s.PlaceCacheEvictions
	return &sweep.RunOutput{Sim: out}, nil
}

func (r *tracedRunner) runSharded(simCfg simulator.Config, p sweep.Point, jobs []*job.Job, root int) (*simulator.Result, error) {
	_, subs, groups, err := p.Topology.PartitionDomains(p.Machines)
	if err != nil {
		return nil, err
	}
	shards := make([]simulator.Shard, len(subs))
	caps := make([]domains.Capacity, len(subs))
	for d, spec := range subs {
		sub, err := r.substrate(spec, len(groups[d]), root, p.Index)
		if err != nil {
			return nil, err
		}
		shards[d] = simulator.Shard{Topology: sub.topo, Profiles: sub.profiles, Machines: groups[d]}
		caps[d] = domains.CapacityOf(sub.topo)
	}
	// RunSharded routes inside; route once more here, timed, to see what
	// that costs and how evenly the jobs spread.
	t0 := time.Now()
	assign, err := domains.RouteStatic(caps, jobs)
	if err != nil {
		return nil, err
	}
	r.routeTime += time.Since(t0)
	r.routedN += len(jobs)
	if len(r.routed) < len(caps) {
		r.routed = append(r.routed, make([]int, len(caps)-len(r.routed))...)
	}
	for _, d := range assign {
		r.routed[d]++
	}
	id := r.tr.begin("simulator.run_sharded", root, p.Index)
	defer r.tr.end(id)
	return simulator.RunSharded(simCfg, shards, jobs, 0)
}

// imbalance is max over mean of per-domain counts (1 = perfectly even).
func imbalance(counts []int) float64 {
	total, most := 0, 0
	for _, c := range counts {
		total += c
		most = max(most, c)
	}
	if total == 0 {
		return 0
	}
	return float64(most) * float64(len(counts)) / float64(total)
}

// runSimTraced is the traced run of a simulator workload: each grid once
// untraced and once through the benchmark-owned runner, the two reports
// required to be byte-identical, then the unit-cost probes.
func runSimTraced(cfg runConfig, res *result) error {
	grids, err := simGridsFor(cfg.workload, cfg.smoke)
	if err != nil {
		return err
	}
	chk := &checker{}
	seed := passSeed(cfg.seed, cfg.workload, 0)
	build, prof, _, err := simSubstrates(grids, seed)
	if err != nil {
		return err
	}
	tr := newTracer()
	runner := &tracedRunner{tr: tr}
	var (
		before, after            runtime.MemStats
		untracedWall, tracedWall time.Duration
		jsonTime, slowest        time.Duration
		points                   int
		reports                  []*sweep.Report
		untraced                 = map[string]time.Duration{} // by grid label
	)
	runtime.ReadMemStats(&before)
	for _, sg := range grids {
		g := sg.grid
		g.BaseSeed = seed
		plain, err := runGrid(g, nil, nil)
		if err != nil {
			return err
		}
		// A fresh substrate cache per grid, as the default runner has.
		runner.grid, runner.subs = g, map[string]*simSubstrate{}
		traced, err := runGrid(g, runner.run, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(plain.json, traced.json) {
			chk.failf("%s: traced and untraced runs produced different reports", g.Name)
		}
		checkReport(traced.report, chk)
		points += len(traced.points)
		untracedWall += plain.wall
		tracedWall += traced.wall
		untraced[sg.label] = plain.wall
		jsonTime += traced.jsonTime
		for _, d := range traced.points {
			slowest = max(slowest, d)
		}
		reports = append(reports, traced.report)
	}
	runtime.ReadMemStats(&after)
	lt := tr.aggregate()
	var inPoints time.Duration
	for _, d := range lt.durs["sweep.point"] {
		inPoints += d
	}
	run, runSharded := lt.self["simulator.run"], lt.self["simulator.run_sharded"]
	sched := runner.sched

	L := res.layers
	L.set("simulator.run_s", run.Seconds(), lt.count["simulator.run"])
	L.set("simulator.run_sharded_s", runSharded.Seconds(), lt.count["simulator.run_sharded"])
	L.set("simulator.self_s", (run - runner.unshardedDecisionTime).Seconds(), 0)
	makespan, slo := simStats(reports)
	L.set("simulator.makespan_s", makespan, 0)
	L.set("simulator.slo_violations", float64(slo), 0)
	// What sweep.Run spent outside the points and the JSON: expanding
	// the grid, distilling point results, summarizing cells.
	L.set("sweep.aggregate_ms", float64(tracedWall-jsonTime-inPoints)/1e6, 0)
	L.set("sweep.report_json_ms", float64(jsonTime)/1e6, 0)
	L.set("sweep.slowest_point_s", slowest.Seconds(), points)
	L.set("sweep.queue_grid_s", untraced["queue"].Seconds(), 0)
	L.set("sweep.preempt_grid_s", untraced["preempt"].Seconds(), 0)
	L.set("topology.build_ms", float64(build)/1e6, 0)
	L.set("profile.generate_ms", float64(prof)/1e6, 0)
	L.set("workload.generate_ms", float64(lt.self["workload.generate"])/1e6, lt.count["workload.generate"])
	setSchedCounts(L, sched)
	L.set("schedcore.decision_time_s", sched.DecisionTime.Seconds(), sched.Decisions)
	if runner.routedN > 0 {
		L.set("domains.route_ns", float64(runner.routeTime)/float64(runner.routedN), runner.routedN)
		L.set("domains.imbalance_ratio", imbalance(runner.routed), 0)
	}
	L.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, 0)
	L.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC), 0)
	L.set("trace.overhead_ratio", tracedWall.Seconds()/untracedWall.Seconds(), 0)
	// Inside a point, everything but the runner's own glue is a span.
	L.set("trace.unattributed_ratio", float64(lt.self["sweep.point"])/float64(tracedWall), 0)

	first := grids[0].grid.Topologies[0]
	sub, err := runner.substrate(first, first.EffectiveMachines(1), -1, 0)
	if err != nil {
		return err
	}
	probes, err := runProbes(sub.topo, sub.profiles, seed, cfg.smoke)
	if err != nil {
		return err
	}
	probes.report(L)
	// Time ≈ Σ count × unit cost: how much of the simulator's time the
	// mapper's misses and the cache's hits explain.
	model := float64(sched.PlaceCacheMisses)*probes.placeUs/1e6 + float64(sched.PlaceCacheHits)*probes.lookupNs/1e9
	res.notef("model: %d misses x %.1fus + %d hits x %.0fns = %.2fs, %.0f%% of the %.2fs the scheduler spent deciding",
		sched.PlaceCacheMisses, probes.placeUs, sched.PlaceCacheHits, probes.lookupNs, model,
		100*model/max(sched.DecisionTime.Seconds(), 1e-9), sched.DecisionTime.Seconds())
	res.notef("%d points traced in %.2fs (untraced %.2fs); %d spans written to %s", points, tracedWall.Seconds(), untracedWall.Seconds(), len(tr.spans), cfg.traceOut)
	if err := tr.write(cfg.traceOut); err != nil {
		return err
	}
	res.attempted, res.failed, res.failures = 2*points, chk.failed, chk.msgs
	return nil
}

// setSchedCounts reports the scheduler's counters and the ratios made
// of them.
func setSchedCounts(L *metricSet, s schedcore.Stats) {
	L.set("schedcore.decisions", float64(s.Decisions), 0)
	L.set("schedcore.gate_skips", float64(s.GateSkips), 0)
	L.set("schedcore.wake_skips", float64(s.WakeSkips), 0)
	L.set("schedcore.preemptions", float64(s.Preemptions), 0)
	L.set("schedcore.evictions", float64(s.Evictions), 0)
	if s.Decisions > 0 {
		L.set("schedcore.placement_ratio", float64(s.Placements)/float64(s.Decisions), 0)
	}
	if lookups := s.PlaceCacheHits + s.PlaceCacheMisses; lookups > 0 {
		L.set("placecache.hit_ratio", float64(s.PlaceCacheHits)/float64(lookups), lookups)
	}
	if s.PlaceCacheMisses > 0 {
		L.set("placecache.evictions_per_miss", float64(s.PlaceCacheEvictions)/float64(s.PlaceCacheMisses), 0)
	}
}
