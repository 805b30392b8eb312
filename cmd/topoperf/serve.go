package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gputopo/internal/schedcore"
	"gputopo/internal/serve"
	"gputopo/internal/serveapi"
	"gputopo/internal/serveapi/client"
	"gputopo/internal/sweep"
)

// serveSpec is one serving workload: the server's shape and the traffic
// sent at it.
type serveSpec struct {
	topology   string // cell-key syntax, as toposerve -topology takes it
	discipline string
	preempt    bool
	durable    bool
	// fsyncEvery is serve.Config.FsyncEvery: 1 syncs every batch.
	fsyncEvery int
	gen        genConfig
	// minPlacedRatio is the share of jobs that must have run at some
	// point: the guard against topoload's failure mode, where the
	// cluster fills once and every later job only ever queues.
	minPlacedRatio float64
}

// holdFor sizes the mean hold time so the sequence keeps the cluster at
// the target occupancy: busy GPUs = rate × hold × mean request.
func holdFor(occupancy float64, gpus int, rate, meanGPUs float64) float64 {
	return occupancy * float64(gpus) / (rate * meanGPUs)
}

func serveSpecFor(name string, smoke bool) serveSpec {
	switch name {
	case "serve-durable":
		s := serveSpec{
			topology: "minsky:128", durable: true, fsyncEvery: 1, minPlacedRatio: 0.95,
			gen: genConfig{Key: name, Rate: 500, MeanHold: 0.35},
		}
		if smoke {
			s.topology = "minsky:16"
			s.gen.MeanHold = holdFor(0.68, 64, s.gen.Rate, s.gen.meanGPUs())
		}
		return s
	case "serve-preempt":
		s := serveSpec{
			topology:   "mix[minsky:24+dgx1:12+pcie:24]/domains[kind]",
			discipline: "priority", preempt: true, fsyncEvery: 1,
			gen: genConfig{Key: name, Rate: 1000, Share8: 0.05, PriorityShare: 0.2},
		}
		gpus := 288
		if smoke {
			s.topology = "mix[minsky:4+dgx1:2+pcie:4]/domains[kind]"
			gpus = 48
		}
		s.gen.MeanHold = holdFor(0.90, gpus, s.gen.Rate, s.gen.meanGPUs())
		return s
	}
	panic("topoperf: not a serving workload: " + name)
}

// engine is what the benchmark needs from either serving engine.
type engine interface {
	Handler() http.Handler
	Close() error
	Kill()
	Replayed() int
}

// liveServer is one in-process server behind a loopback listener, plus
// the typed client aimed at it.
type liveServer struct {
	eng      engine
	httpSrv  *http.Server
	served   chan struct{}
	tr       *http.Transport
	cl       *client.Client
	totalGPU int
}

func (s serveSpec) config(logPath string, snapshotEvery int) (serve.Config, error) {
	ts, err := sweep.ParseTopologyArg(s.topology)
	if err != nil {
		return serve.Config{}, err
	}
	return serve.Config{
		Spec: ts, Policy: schedcore.TopoAwareP, Discipline: s.discipline, Preemption: s.preempt,
		LogPath: logPath, SnapshotEvery: snapshotEvery, FsyncEvery: s.fsyncEvery,
	}, nil
}

func (s serveSpec) newEngine(logPath string, snapshotEvery int) (engine, error) {
	cfg, err := s.config(logPath, snapshotEvery)
	if err != nil {
		return nil, err
	}
	if cfg.Spec.Domains != "" {
		return serve.NewMulti(cfg)
	}
	return serve.New(cfg)
}

// start brings a server up exactly as an operator's process would —
// engine, listener, first healthy answer — and reports how long that
// took. conns bounds the keep-alive connections the client may hold.
func (s serveSpec) start(ctx context.Context, logPath string, snapshotEvery, conns int) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	eng, err := s.newEngine(logPath, snapshotEvery)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, 0, err
	}
	ls := &liveServer{
		eng:     eng,
		httpSrv: &http.Server{Handler: eng.Handler()},
		served:  make(chan struct{}),
		tr:      &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
	}
	go func() {
		defer close(ls.served)
		ls.httpSrv.Serve(ln) // returns once stop closes the server
	}()
	ls.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: ls.tr, Timeout: 30 * time.Second}),
		client.WithMaxRetries(0))
	if err := ls.cl.Health(ctx); err != nil {
		ls.stop(true)
		return nil, 0, err
	}
	up := time.Since(t0)
	st, err := ls.cl.State(ctx)
	if err != nil {
		ls.stop(true)
		return nil, 0, err
	}
	ls.totalGPU = st.GPUs
	return ls, up, nil
}

// stop shuts the listener and the engine down and waits for the accept
// loop to end. kill skips the final snapshot, as a crash would.
func (ls *liveServer) stop(kill bool) error {
	ls.httpSrv.Close()
	<-ls.served
	ls.tr.CloseIdleConnections()
	if kill {
		ls.eng.Kill()
		return nil
	}
	return ls.eng.Close()
}

// checker counts correctness violations; any one fails the command.
type checker struct {
	mu     sync.Mutex
	failed int
	msgs   []string
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// checkSubmit validates a POST /v1/jobs answer: placed on exactly the
// requested number of distinct in-range GPUs, or queued.
func checkSubmit(req serveapi.JobRequest, resp *serveapi.JobResponse, totalGPUs int) error {
	switch resp.Status {
	case "queued":
		return nil
	case "placed":
		if len(resp.GPUs) != req.GPUs {
			return fmt.Errorf("job %s asked %d GPUs, placed on %v", req.ID, req.GPUs, resp.GPUs)
		}
		for i, g := range resp.GPUs {
			if g < 0 || g >= totalGPUs || slices.Contains(resp.GPUs[:i], g) {
				return fmt.Errorf("job %s placed on %v: GPU %d out of range or repeated", req.ID, resp.GPUs, g)
			}
		}
		return nil
	}
	return fmt.Errorf("job %s: unknown status %q", req.ID, resp.Status)
}

// checkState validates one /v1/state sample: no GPU runs two jobs, and
// busy plus free GPUs is the whole cluster.
func checkState(st *serveapi.StateResponse) error {
	owner := map[int]string{}
	busy := 0
	for _, r := range st.Running {
		for _, g := range r.GPUs {
			if other, taken := owner[g]; taken {
				return fmt.Errorf("GPU %d runs both %s and %s", g, other, r.ID)
			}
			owner[g] = r.ID
			busy++
		}
	}
	if busy+st.FreeGPUs != st.GPUs {
		return fmt.Errorf("%d busy + %d free GPUs != %d GPUs", busy, st.FreeGPUs, st.GPUs)
	}
	return nil
}

// checkDrained validates the state after the last DELETE.
func checkDrained(st *serveapi.StateResponse) error {
	if len(st.Running) != 0 || len(st.Queue) != 0 || st.FreeGPUs != st.GPUs {
		return fmt.Errorf("after the last DELETE: %d running, %d queued, %d of %d GPUs free",
			len(st.Running), len(st.Queue), st.FreeGPUs, st.GPUs)
	}
	return nil
}

// window is one stretch of the closed phase between two readings of the
// reference kernel. The clients stand still while the kernel is read, so
// a window holds only the server's and the generator's work.
type window struct {
	wall, cpu time.Duration
	ops       int
	posts     []float64 // POST round trips acked in it, ms
}

// phase is what one timed drive of the op sequence measured.
type phase struct {
	lat [4][]float64 // round trips in ms, by opKind, over the whole drive
	// Closed drives only: the measured time cut into windows. A run's
	// figures are medians over its windows, so a stall of the sandbox costs
	// one window, not a share of the mean. The warm-up before the first
	// window and the closing DELETEs after the last are in none.
	windows   []window
	readings  []float64 // of the reference kernel; window i lies between readings i and i+1
	measured  int       // ops acked inside the windows
	mallocs   uint64    // heap objects allocated inside the windows
	attempted int
	acked     int
	wall      time.Duration
	jobs      int
	ranEver   int // jobs that ran at some point
	// paced only
	due         int
	onTime      int // acked within goodputLimit of their due time
	maxLateness time.Duration
	gcPause     time.Duration
	gcCycles    uint32
	final       *serveapi.StateResponse
}

const goodputLimit = 20 * time.Millisecond

// closedFsyncEvery is the group commit of the untraced run: the log is
// appended to on every batch and synced on every eighth. Synced on every
// batch (as the traced run does, where the sync is a span of its own),
// what an op costs is the sandbox disk's mood: the driver saw the closed
// phase's throughput spread 50% and its POST latency 300% over ten runs,
// and even the CPU time of an op moved 6% between back-to-back runs
// against 1% at eight.
const closedFsyncEvery = 8

const (
	// closedWarmup runs before the first window: the cluster fills to its
	// occupancy, the place cache and the heap reach their working size.
	closedWarmup = 1500 * time.Millisecond
	// closedWindow is a window's length; refUnitsPerRead units of the
	// reference kernel (about 1 ms each) are timed between two windows.
	closedWindow    = 400 * time.Millisecond
	refUnitsPerRead = 9
)

// windowMedians returns the medians over the windows of: ops acked per
// reference second, ops acked per wall-clock second, CPU microseconds
// per op, and the median POST round trip (ms).
func (p *phase) windowMedians() (perRefS, perWallS, cpuUs, postMs float64) {
	var ref, wall, cpu, posts []float64
	for i, w := range p.windows {
		if w.ops == 0 {
			continue
		}
		// The host's speed around the window: the six readings nearest to
		// it, about two seconds. One reading can be off (the collector was
		// marking on the other core); the host does not change that fast.
		near := p.readings[max(0, i-2):min(len(p.readings), i+4)]
		ref = append(ref, float64(w.ops)/refSeconds(w.cpu, near))
		wall = append(wall, float64(w.ops)/w.wall.Seconds())
		cpu = append(cpu, float64(w.cpu.Microseconds())/float64(w.ops))
		if len(w.posts) > 0 {
			posts = append(posts, median(w.posts))
		}
	}
	if len(ref) == 0 || len(posts) == 0 {
		return 0, 0, 0, 0
	}
	return median(ref), median(wall), median(cpu), median(posts)
}

// clientCount is the generator's concurrency: as many keep-alive
// connections and goroutines as cores, at most four. More would measure
// the sandbox's scheduler, not the server.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// driveMode says how drive sends the sequence. Closed (paced false):
// each client takes the next op as soon as its previous reply is in; after
// warmup the time is cut into windows, and between two windows the clients
// stand still while the reference kernel is read. Paced: ops are sent
// open-loop at their due time on the virtual timeline and timed from that
// due time, so a stall is charged to every request it delayed.
type driveMode struct {
	paced          bool
	warmup, window time.Duration
	kernel         *refKernel // closed only
}

// closedMode is the untraced run's mode. A smoke run only has to pass
// through every path.
func closedMode(smoke bool, kernel *refKernel) driveMode {
	if smoke {
		return driveMode{warmup: 100 * time.Millisecond, window: 100 * time.Millisecond, kernel: kernel}
	}
	return driveMode{warmup: closedWarmup, window: closedWindow, kernel: kernel}
}

// drive replays the generator's sequence at the server with workers
// clients. New jobs stop arriving once dur has been measured — dur of
// wall clock after the warm-up when closed, dur of the virtual timeline
// when paced. Either way every submitted job is deleted before drive
// returns.
func drive(ctx context.Context, ls *liveServer, g *generator, mode driveMode, dur time.Duration, workers int, chk *checker) (*phase, error) {
	var (
		genMu    sync.Mutex
		inflight atomic.Int32 // ops taken and not yet answered
		acked    atomic.Int64
		winIdx   atomic.Int32 // the open window, -1 outside the windows
		cursor   atomic.Int64
		wg       sync.WaitGroup
		parts    = make([]phase, workers)
		posts    = make([][][]float64, workers) // by worker, by window
	)
	winIdx.Store(-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(mode.warmup + dur)

	take := func() (genOp, bool) {
		genMu.Lock()
		defer genMu.Unlock()
		over := time.Now().After(deadline)
		if mode.paced {
			over = g.nextAt > dur.Seconds() // the timeline, not the wall clock, ends a paced phase
		}
		if over {
			g.stopSubmits()
		}
		op, ok := g.next()
		if ok {
			inflight.Add(1)
		}
		return op, ok
	}

	total := &phase{}
	sampled := make(chan struct{})
	if mode.paced {
		close(sampled)
	} else {
		go func() {
			defer close(sampled)
			kernel := mode.kernel
			var (
				open     window
				t0       time.Time
				cpu0     time.Duration
				ops0     int64
				from     int64
				ms0, ms1 runtime.MemStats
			)
			n := int(dur / mode.window)
			for i := 0; i <= n; i++ {
				time.Sleep(time.Until(start.Add(mode.warmup + time.Duration(i)*mode.window)))
				genMu.Lock() // no client takes another op ...
				for inflight.Load() > 0 {
					time.Sleep(100 * time.Microsecond) // ... and the ones in flight come home
				}
				now, cpu, ops := time.Now(), processCPU(), acked.Load()
				winIdx.Store(-1)
				total.readings = append(total.readings, kernel.read(refUnitsPerRead))
				if i > 0 {
					open.wall, open.cpu, open.ops = now.Sub(t0), cpu-cpu0, int(ops-ops0)
					total.windows = append(total.windows, open)
				} else {
					from = ops
					runtime.ReadMemStats(&ms0)
				}
				if i == n {
					runtime.ReadMemStats(&ms1)
					total.measured, total.mallocs = int(ops-from), ms1.Mallocs-ms0.Mallocs
				} else {
					open = window{}
					winIdx.Store(int32(i))
					t0, cpu0, ops0 = time.Now(), processCPU(), ops
				}
				genMu.Unlock()
			}
		}()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(p *phase, posts *[][]float64) {
			defer wg.Done()
			for {
				op, ok := take()
				if !ok {
					return
				}
				if op.Kind == opRelease {
					<-op.Job.acked
				}
				t0 := time.Now()
				if mode.paced {
					dueAt := start.Add(time.Duration(op.At * float64(time.Second)))
					if wait := dueAt.Sub(t0); wait > 0 {
						time.Sleep(wait)
					} else if -wait > p.maxLateness {
						p.maxLateness = -wait
					}
					t0 = dueAt
					p.due++
				}
				p.attempted++
				err := doOp(ctx, ls, op, &cursor, p, chk)
				rtt := time.Since(t0)
				if err != nil {
					chk.failf("%s: %v", op, err)
					inflight.Add(-1)
					continue
				}
				p.acked++
				if mode.paced && rtt <= goodputLimit {
					p.onTime++
				}
				ms := float64(rtt) / float64(time.Millisecond)
				p.lat[op.Kind] = append(p.lat[op.Kind], ms)
				if w := int(winIdx.Load()); w >= 0 && op.Kind == opSubmit {
					for len(*posts) <= w {
						*posts = append(*posts, nil)
					}
					(*posts)[w] = append((*posts)[w], ms)
				}
				acked.Add(1)
				inflight.Add(-1)
			}
		}(&parts[w], &posts[w])
	}
	wg.Wait()
	<-sampled
	total.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	total.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	total.gcCycles = after.NumGC - before.NumGC
	for i := range parts {
		p := &parts[i]
		for k := range p.lat {
			total.lat[k] = append(total.lat[k], p.lat[k]...)
		}
		for w := range posts[i] {
			if w < len(total.windows) {
				total.windows[w].posts = append(total.windows[w].posts, posts[i][w]...)
			}
		}
		total.attempted += p.attempted
		total.acked += p.acked
		total.jobs += p.jobs
		total.ranEver += p.ranEver
		total.due += p.due
		total.onTime += p.onTime
		if p.maxLateness > total.maxLateness {
			total.maxLateness = p.maxLateness
		}
	}
	for k := range total.lat {
		sort.Float64s(total.lat[k])
	}
	st, err := ls.cl.State(ctx)
	if err != nil {
		return nil, fmt.Errorf("final /v1/state: %w", err)
	}
	if err := checkDrained(st); err != nil {
		chk.failf("%v", err)
	}
	total.final = st
	return total, nil
}

// doOp sends one op through the typed client and checks the answer.
func doOp(ctx context.Context, ls *liveServer, op genOp, cursor *atomic.Int64, p *phase, chk *checker) error {
	switch op.Kind {
	case opSubmit:
		defer close(op.Job.acked)
		p.jobs++
		resp, err := ls.cl.SubmitJob(ctx, op.Job.req)
		if err != nil {
			return err
		}
		op.Job.placedOnPost = resp.Status == "placed"
		if op.Job.placedOnPost {
			p.ranEver++
		}
		return checkSubmit(op.Job.req, resp, ls.totalGPU)
	case opRelease:
		resp, err := ls.cl.ReleaseJob(ctx, op.Job.req.ID)
		if err != nil {
			return err
		}
		if resp.Status == "released" && !op.Job.placedOnPost {
			p.ranEver++ // placed from the queue after its POST was answered
		}
		return nil
	case opDecisions:
		resp, err := ls.cl.Decisions(ctx, int(cursor.Load()), 0)
		if err != nil {
			return err
		}
		cursor.Store(int64(resp.NextAfter))
		return nil
	case opState:
		st, err := ls.cl.State(ctx)
		if err != nil {
			return err
		}
		return checkState(st)
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

// pctOf returns a percentile of an ascending sample, recording a
// correctness failure when the sample cannot support it: the run was
// too short to mean anything.
func pctOf(chk *checker, what string, sorted []float64, p float64) float64 {
	v, err := percentile(sorted, p)
	if err != nil {
		chk.failf("%s: %v", what, err)
	}
	return v
}

// measureSetup starts and stops the server k times on fresh logs and
// returns each start's time to healthy, with the readings of the kernel
// taken before the first and after the last.
func (s serveSpec) measureSetup(ctx context.Context, dir string, k int, kernel *refKernel) ([]stretch, []float64, error) {
	var starts []stretch
	near := []float64{kernel.read(refUnitsPerRead)}
	for i := 0; i < k; i++ {
		logPath := ""
		if s.durable {
			logPath = filepath.Join(dir, fmt.Sprintf("setup-%d.log", i))
		}
		var ls *liveServer
		st, err := timeStretch(func() (err error) {
			ls, _, err = s.start(ctx, logPath, 0, 1)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		if err := ls.stop(false); err != nil {
			return nil, nil, err
		}
		starts = append(starts, st)
	}
	return starts, append(near, kernel.read(refUnitsPerRead)), nil
}

// setSetup reports set-up from its repeats: the gated setup_s is the
// median repeat's CPU time in reference seconds, like ops_per_ref_s and
// for the same reason; setup_wall_s is the median wall clock.
func setSetup(res *result, repeats []stretch, near []float64) {
	var ref, wall []float64
	for _, st := range repeats {
		ref = append(ref, refSeconds(st.cpu, near))
		wall = append(wall, st.wall.Seconds())
	}
	res.e2e.set("setup_s", median(ref), len(ref))
	res.setExtra("setup_wall_s", median(wall), len(wall))
}

// runServeUntraced is the untraced run of a serving workload: setup,
// then the closed phase, then the drained-state checks.
func runServeUntraced(ctx context.Context, cfg runConfig, res *result) error {
	spec := serveSpecFor(cfg.workload, cfg.smoke)
	spec.fsyncEvery = closedFsyncEvery
	chk := &checker{}
	kernel := newRefKernel()
	setups, near, err := spec.measureSetup(ctx, cfg.dir, cfg.setupRepeats(), kernel)
	if err != nil {
		return err
	}
	logPath := ""
	if spec.durable {
		logPath = filepath.Join(cfg.dir, "closed.log")
	}
	workers := clientCount()
	ls, _, err := spec.start(ctx, logPath, 0, workers)
	if err != nil {
		return err
	}
	ph, err := drive(ctx, ls, newGenerator(spec.gen, cfg.seed), closedMode(cfg.smoke, kernel), cfg.measure(), workers, chk)
	if err != nil {
		ls.stop(true)
		return err
	}
	if err := ls.stop(false); err != nil {
		return err
	}

	if len(ph.windows) == 0 {
		return fmt.Errorf("%s: -seconds %g is shorter than one window", cfg.workload, cfg.seconds)
	}
	e2e := res.e2e
	setSetup(res, setups, near)
	perRefS, perWallS, cpuUs, postMs := ph.windowMedians()
	posts := ph.lat[opSubmit]
	e2e.set("ops_per_ref_s", perRefS, ph.measured)
	e2e.set("allocs_per_op", float64(ph.mallocs)/float64(max(ph.measured, 1)), ph.measured)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	e2e.set("peak_rss_mb", rss, 0)
	res.setExtra("ops_per_s", perWallS, ph.measured)
	res.setExtra("cpu_us_per_op", cpuUs, ph.measured)
	res.setExtra("op_latency_ms", postMs, len(posts))
	dels, states := ph.lat[opRelease], ph.lat[opState]
	tail := cfg.tailPercentile()
	res.setExtra("submit_p99_ms", pctOf(chk, "POST round trips", posts, tail), len(posts))
	res.setExtra("release_p50_ms", pctOf(chk, "DELETE round trips", dels, 50), len(dels))
	res.setExtra("release_p99_ms", pctOf(chk, "DELETE round trips", dels, tail), len(dels))
	res.setExtra("state_read_p50_ms", pctOf(chk, "GET /v1/state round trips", states, 50), len(states))

	placed := float64(ph.ranEver) / float64(max(ph.jobs, 1))
	if placed < spec.minPlacedRatio {
		chk.failf("only %.1f%% of %d jobs ever ran (want >= %.0f%%): the cluster filled and stayed full", 100*placed, ph.jobs, 100*spec.minPlacedRatio)
	}
	slow := slices.Sorted(slices.Values(ph.readings))
	res.notef("%d readings %v apart; host slowdown median %.3f, from %.3f to %.3f (CPU seconds per reference second)",
		len(slow), closedMode(cfg.smoke, nil).window, median(slow), slow[0], slow[len(slow)-1])
	res.notef("%d jobs, %.1f%% ran at some point; %d POST, %d DELETE, %d GET decisions, %d GET state in %.2fs on %d clients",
		ph.jobs, 100*placed, len(posts), len(dels), len(ph.lat[opDecisions]), len(states), ph.wall.Seconds(), workers)
	if lg := ph.final.Log; lg != nil {
		res.notef("event log: %d snapshot rewrites, %d fsyncs", lg.Snapshots, lg.Syncs)
		if !cfg.smoke && lg.Snapshots < 1 {
			chk.failf("durable run wrote no snapshot")
		}
	}
	res.attempted, res.failed, res.failures = ph.attempted, chk.failed, chk.msgs
	return nil
}

// sameState compares two state snapshots after dropping what a restart
// legitimately changes. It works on copies: ClearVolatile writes through
// the Domains slice.
func sameState(a, b *serveapi.StateResponse) bool {
	canon := func(st *serveapi.StateResponse) string {
		data, _ := json.Marshal(st)
		var c serveapi.StateResponse
		_ = json.Unmarshal(data, &c) // round trip of a value just marshalled
		c.ClearVolatile()
		out, _ := json.Marshal(c)
		return string(out)
	}
	return canon(a) == canon(b)
}
