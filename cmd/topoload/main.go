// Command topoload is the load harness for toposerve: it drives a
// §5.3-generator job stream at the /v1 HTTP API through the typed
// client (internal/serveapi/client), measures the placement-decision
// round trip at the client, and prints a two-line summary: traffic
// driven and how it fared, then the placement-latency percentiles and
// decision throughput. It exits 1 when any request ended in a terminal
// error, which is what fails CI's serving job.
//
//	toposerve -topology minsky:2 -max-queue 64 &
//	topoload  -topology minsky:2 -url http://127.0.0.1:8080 -jobs 200 -workers 8
//
// Without -url, topoload starts an in-process server on a loopback
// port (same engine, internal/serve) so one command benchmarks the
// whole stack:
//
//	topoload -topology minsky:2 -policy topo-p -jobs 200
//
// Traffic model: by default -workers closed-loop submitters drain the
// generated job list. Every job of the stream is released -hold after
// topoload first sees it running — placed by its own POST, or later from
// the queue, which a poll of GET /v1/state every -hold finds — so the
// cluster churns and queued jobs keep waking up; jobs of other clients
// are never touched. The run ends once none of its jobs is running or
// queued, and fails if that takes far longer than releasing the stream
// one job at a time would. With -submit-rate R
// the harness switches to open-loop load: each job is submitted at its
// own scheduled arrival time (Poisson process at R jobs/s by default,
// or evenly spaced with -arrivals fixed) regardless of how fast the
// server answers, so measured latency reflects queueing under a fixed
// offered rate instead of self-throttling to server speed. Arrival
// spacing is deterministic per -seed. Submissions rejected by
// admission control are retried by the client per Retry-After up to its
// budget; a terminal failure of any kind counts as an error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gputopo/internal/job"
	"gputopo/internal/schedcore"
	"gputopo/internal/serve"
	"gputopo/internal/serveapi"
	"gputopo/internal/serveapi/client"
	"gputopo/internal/sweep"
	"gputopo/internal/workload"
)

type config struct {
	url        string
	topoArg    string
	policy     string
	disc       string
	preempt    bool
	prioShare  float64
	jobs       int
	seed       uint64
	rate       float64
	submitRate float64
	arrivals   string
	workers    int
	hold       time.Duration
	retries    int
	maxQueue   int
	logPath    string
	quiet      bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.url, "url", "", "target toposerve base URL (empty: run an in-process server)")
	flag.StringVar(&cfg.topoArg, "topology", "minsky:2", "topology spec shaping the generated workload (and the in-process server)")
	flag.StringVar(&cfg.policy, "policy", "topo-p", "in-process server policy")
	flag.StringVar(&cfg.disc, "discipline", "", "in-process server queue discipline: fifo (default) or priority")
	flag.BoolVar(&cfg.preempt, "preempt", false, "enable preemption on the in-process server")
	flag.Float64Var(&cfg.prioShare, "priority-share", 0, "fraction of generated jobs submitted at priority 1 (mixed-priority load)")
	flag.IntVar(&cfg.jobs, "jobs", 200, "jobs to submit")
	flag.Uint64Var(&cfg.seed, "seed", 42, "workload generator seed")
	flag.Float64Var(&cfg.rate, "rate", 10, "workload generator arrival rate (jobs/min), shapes sizes and arrival spacing")
	flag.Float64Var(&cfg.submitRate, "submit-rate", 0, "open-loop target submit rate (jobs/sec); 0: closed-loop via -workers")
	flag.StringVar(&cfg.arrivals, "arrivals", "poisson", "open-loop arrival process: poisson or fixed")
	flag.IntVar(&cfg.workers, "workers", 8, "concurrent closed-loop submitters (ignored in open-loop mode)")
	flag.DurationVar(&cfg.hold, "hold", 20*time.Millisecond, "how long a placed job runs before release")
	flag.IntVar(&cfg.retries, "retries", 8, "client retry budget for 429 admission rejections")
	flag.IntVar(&cfg.maxQueue, "max-queue", 0, "in-process server admission limit (0: unlimited)")
	flag.StringVar(&cfg.logPath, "log", "", "in-process server event-log path (empty: in-memory)")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress the summary")
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topoload:", err)
		os.Exit(1)
	}
}

// result is one load run, as the summary prints it.
type result struct {
	mode string // traffic model: "closed-loop" or "open-loop"
	// jobs submissions were driven; placed of them were placed by their
	// own POST. released jobs were released after -hold, so the run made
	// jobs+released requests (besides its state polls). errors of those
	// ended in a terminal failure (anything but an eventually-admitted
	// 429, which retries429 counts).
	jobs, placed, released, errors, retries429 int
	decisions                                  int // the server's count over the run
	// submitted is the submit phase, from the first submit until the
	// last one returned; run also holds the drain that follows, until
	// the server holds none of the stream's jobs.
	submitted, run time.Duration
	p50, p95, p99  float64 // submit round trip, ms
}

// run drives the load, prints the summary, and reports any terminal
// request failure as an error, so the process exit status carries it.
func run(cfg config, w io.Writer) error {
	res, err := load(cfg)
	if err != nil {
		return err
	}
	if !cfg.quiet {
		sub, all := res.submitted.Seconds(), res.run.Seconds()
		fmt.Fprintf(w, "topoload: serve/%s/%s (%s): %d jobs submitted in %.2fs (%.1f jobs/s), %d placed on submit, %d released, %d errors, %d admission retries\n",
			cfg.topoArg, cfg.policy, res.mode, res.jobs, sub, float64(res.jobs)/sub, res.placed, res.released, res.errors, res.retries429)
		fmt.Fprintf(w, "topoload: placement latency p50=%.2fms p95=%.2fms p99=%.2fms; %d decisions in the %.2fs run, drain included (%.0f/s)\n",
			res.p50, res.p95, res.p99, res.decisions, all, float64(res.decisions)/all)
	}
	if res.errors > 0 {
		return fmt.Errorf("%d of %d requests failed", res.errors, res.jobs+res.released)
	}
	return nil
}

// load generates the job stream, starts the in-process server unless
// -url names one, and drives the stream at it.
func load(cfg config) (result, error) {
	spec, err := sweep.ParseTopologyArg(cfg.topoArg)
	if err != nil {
		return result{}, err
	}
	topo, err := spec.Build(spec.EffectiveMachines(1), false)
	if err != nil {
		return result{}, err
	}
	jobs, err := workload.Generate(workload.GenConfig{
		Jobs: cfg.jobs, Seed: cfg.seed, ArrivalRate: cfg.rate,
		HighPriorityShare: cfg.prioShare,
	}, topo)
	if err != nil {
		return result{}, err
	}

	base := cfg.url
	if base == "" {
		var stop func()
		if base, stop, err = startInProcess(cfg, spec); err != nil {
			return result{}, err
		}
		defer stop()
	}

	c := client.New(base, client.WithMaxRetries(cfg.retries))
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		return result{}, fmt.Errorf("server at %s not healthy: %w", base, err)
	}
	return drive(ctx, c, jobs, cfg)
}

// startInProcess serves the spec — split into scheduling domains when
// it carries a /domains[...] suffix — on a loopback listener and returns
// its base URL and the shutdown function.
func startInProcess(cfg config, spec sweep.TopologySpec) (base string, stop func(), err error) {
	pol, err := schedcore.ParsePolicy(cfg.policy)
	if err != nil {
		return "", nil, err
	}
	srv, err := serve.New(serve.Config{
		Spec: spec, Policy: pol, Discipline: cfg.disc, Preemption: cfg.preempt,
		LogPath: cfg.logPath, MaxQueue: cfg.maxQueue,
	})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		httpSrv.Close()
		srv.Close()
	}, nil
}

// drive runs the submit phase — closed-loop by default, open-loop when
// -submit-rate is set — while it releases the stream's jobs, waits until
// the server holds none of them, and reads the run's result off the
// client and the server's final state.
func drive(ctx context.Context, c *client.Client, jobs []*job.Job, cfg config) (result, error) {
	var (
		mu        sync.Mutex
		latencies []time.Duration
		placed    int64
		errs      int64
		releaseWG sync.WaitGroup
	)
	ours := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		ours[j.ID] = true
	}
	scheduled := make(map[string]bool) // jobs whose release is scheduled
	// release schedules the job's one DELETE, -hold from now.
	release := func(id string) {
		mu.Lock()
		defer mu.Unlock()
		if scheduled[id] {
			return
		}
		scheduled[id] = true
		releaseWG.Add(1)
		time.AfterFunc(cfg.hold, func() {
			defer releaseWG.Done()
			if _, err := c.ReleaseJob(ctx, id); err != nil {
				atomic.AddInt64(&errs, 1)
			}
		})
	}
	// submitOne is the shared submit path; both traffic models feed it,
	// they differ only in when each call starts.
	submitOne := func(j *job.Job) {
		req := serveapi.JobRequest{
			ID: j.ID, Model: j.Model.String(), BatchSize: j.BatchSize,
			GPUs: j.GPUs, MinUtility: j.MinUtility, Iterations: j.Iterations,
			Priority: j.Priority,
		}
		t0 := time.Now()
		jr, err := c.SubmitJob(ctx, req)
		rtt := time.Since(t0)
		if err != nil {
			atomic.AddInt64(&errs, 1)
			return
		}
		mu.Lock()
		latencies = append(latencies, rtt)
		mu.Unlock()
		if jr.Status == "placed" {
			atomic.AddInt64(&placed, 1)
			release(jr.ID)
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	if cfg.submitRate > 0 {
		// Open-loop: every job has a scheduled arrival offset from the
		// target rate; submit at that wall-clock instant in its own
		// goroutine whether or not earlier requests have returned.
		offsets, err := arrivalOffsets(len(jobs), cfg)
		if err != nil {
			return result{}, err
		}
		for i, j := range jobs {
			wg.Add(1)
			go func(j *job.Job, at time.Duration) {
				defer wg.Done()
				time.Sleep(time.Until(start.Add(at)))
				submitOne(j)
			}(j, offsets[i])
		}
	} else {
		work := make(chan *job.Job)
		for i := 0; i < cfg.workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range work {
					submitOne(j)
				}
			}()
		}
		go func() {
			for _, j := range jobs {
				work <- j
			}
			close(work)
		}()
	}
	var submitPhase time.Duration
	submitted := make(chan struct{})
	go func() {
		wg.Wait()
		submitPhase = time.Since(start)
		close(submitted)
	}()

	// Poll the cluster-wide state every -hold: release each running job
	// of the stream, a job placed from the queue included, until the
	// submit phase is over and the state holds none of the stream's jobs.
	// A failed read while submitting is retried at the next poll.
	// Releasing the stream one job at a time takes about two polls per
	// job; a drain far past that is stuck, not slow.
	every := max(cfg.hold, time.Millisecond) // a zero -hold must not spin
	var st *serveapi.StateResponse
	var deadline time.Time
	for {
		time.Sleep(every)
		var err error
		left := 0
		if st, err = c.State(ctx); err == nil {
			for _, r := range st.Running {
				if ours[r.ID] {
					release(r.ID)
					left++
				}
			}
			for _, q := range st.Queue {
				if ours[q.ID] {
					left++
				}
			}
		}
		select {
		case <-submitted:
		default:
			continue
		}
		if err != nil {
			return result{}, err
		}
		if left == 0 {
			break
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(10*time.Second + time.Duration(2*len(jobs))*every)
		} else if time.Now().After(deadline) {
			return result{}, fmt.Errorf("%d of its jobs still running or queued %v after the last submit", left, time.Since(start)-submitPhase)
		}
	}
	releaseWG.Wait()
	_, retries := c.Stats()

	res := result{
		mode:       "closed-loop",
		jobs:       len(jobs),
		placed:     int(placed),
		released:   len(scheduled),
		errors:     int(errs),
		retries429: int(retries),
		decisions:  st.Stats.Decisions,
		submitted:  submitPhase,
		run:        time.Since(start),
		p50:        percentileMs(latencies, 50),
		p95:        percentileMs(latencies, 95),
		p99:        percentileMs(latencies, 99),
	}
	if cfg.submitRate > 0 {
		res.mode = "open-loop"
	}
	return res, nil
}

// arrivalOffsets returns each job's scheduled submit time as an offset
// from the run's start, for the open-loop traffic model. Poisson draws
// exponential inter-arrival gaps at the target rate from a generator
// seeded by -seed, so a given (jobs, rate, seed) triple always yields
// the same arrival schedule; fixed spaces submissions evenly at 1/rate.
func arrivalOffsets(n int, cfg config) ([]time.Duration, error) {
	gap := time.Duration(float64(time.Second) / cfg.submitRate)
	offsets := make([]time.Duration, n)
	switch cfg.arrivals {
	case "fixed":
		for i := range offsets {
			offsets[i] = time.Duration(i) * gap
		}
	case "poisson":
		rng := rand.New(rand.NewSource(int64(cfg.seed)))
		at := time.Duration(0)
		for i := range offsets {
			at += time.Duration(rng.ExpFloat64() * float64(gap))
			offsets[i] = at
		}
	default:
		return nil, fmt.Errorf("unknown -arrivals %q (want poisson or fixed)", cfg.arrivals)
	}
	return offsets, nil
}

// percentileMs returns the p-th percentile (nearest-rank) in
// milliseconds. Sorts its input.
func percentileMs(ds []time.Duration, p int) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := (len(ds)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(ds) {
		rank = len(ds)
	}
	return float64(ds[rank-1]) / float64(time.Millisecond)
}
