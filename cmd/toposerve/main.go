// Command toposerve is the real-time serving front-end over the
// driver-agnostic scheduling core (internal/schedcore): the same §4.4
// placement loop the simulator replays against virtual time, driven by
// live HTTP traffic against the wall clock. The engine lives in
// internal/serve: one single-writer loop owns the core, batches queued
// arrivals into single scheduling rounds, journals every accepted
// operation to an append-only event log with group-commit fsync, and
// replays the log on start so a restart resumes with identical state.
//
//	toposerve -topology minsky:4 -policy topo-p -addr :8080
//	toposerve -topology mix[minsky:2+dgx1:1] -log /var/lib/toposerve/events.log
//	toposerve -topology matrix[machine.matrix]:8 -max-queue 64
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/jobs -d '{"model":"AlexNet","batch_size":4,"gpus":2,"min_utility":0.5}'
//	curl -s localhost:8080/v1/state
//	curl -s 'localhost:8080/v1/decisions?after=0&limit=100'
//	curl -s -X DELETE localhost:8080/v1/jobs/job-1
//
// The -topology syntax is the sweep cell-key syntax (named builders,
// "mix[...]" heterogeneous clusters including degraded "minsky-1g"
// kinds, and "matrix[file]" discovered machines), so a substrate from
// any sweep artifact can be served verbatim. A "/domains[...]" suffix
// (e.g. "minsky:8/domains[hash:4]") splits the cluster into scheduling
// domains: one single-writer loop and one event log per domain behind
// the same placement router an unsplit cluster's one domain sits behind
// (docs/sharding.md). See docs/serving.md.
//
// SIGTERM/SIGINT drain gracefully: new submissions get 503 (draining),
// in-flight requests finish, a final snapshot bounds the next start's
// replay to zero records.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gputopo/internal/schedcore"
	"gputopo/internal/serve"
	"gputopo/internal/sweep"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		topoArg  = flag.String("topology", "minsky:1", "topology spec: builder[:machines], mix[kind:n+...], matrix[file][:machines]")
		policy   = flag.String("policy", "topo-p", "placement policy: fcfs, bf, topo, topo-p")
		disc     = flag.String("discipline", "", "queue discipline: fifo (default) or priority")
		preempt  = flag.Bool("preempt", false, "enable topology-aware preemption (positive-priority jobs may evict lower-priority ones)")
		logPath  = flag.String("log", "", "event-log path for durability (empty: in-memory only); with domains[...], one log per domain at this path + .dN")
		maxQueue = flag.Int("max-queue", 0, "admission control: 429 when the wait queue is this deep (0: unlimited; per domain when sharded)")
		snapshot = flag.Int("snapshot-every", 0, "snapshot+truncate the log every N records (0: default, negative: only on shutdown)")
		fsyncEv  = flag.Int("fsync-every", 0, "group-commit fsync once every N batches instead of every batch (0/1: every batch; >1 trades the durability of up to N-1 acked batches for latency)")
		drainFor = flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on SIGTERM")
		quietOff = flag.Bool("quiet", false, "suppress the startup banner")
	)
	flag.Parse()
	if err := run(*addr, *topoArg, *policy, *disc, *preempt, *logPath, *maxQueue, *snapshot, *fsyncEv, *drainFor, *quietOff); err != nil {
		fmt.Fprintln(os.Stderr, "toposerve:", err)
		os.Exit(1)
	}
}

// The whole request is bounded, not just its headers, so a slow or
// stalled connection cannot hold a goroutine forever: a client gets
// readHeaderTimeout to send its headers and readTimeout to finish the
// body (at most 1 MiB); the answer — one batch's decision and fsync —
// must be written within writeTimeout of the headers arriving; a
// keep-alive connection may sit idle for idleTimeout. Constants, not
// flags: one deployment, one value.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr: addr, Handler: h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(addr, topoArg, policyName, discipline string, preempt bool, logPath string, maxQueue, snapshotEvery, fsyncEvery int, drainFor time.Duration, quiet bool) error {
	spec, err := sweep.ParseTopologyArg(topoArg)
	if err != nil {
		return err
	}
	pol, err := schedcore.ParsePolicy(policyName)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Spec:          spec,
		Policy:        pol,
		Discipline:    discipline,
		Preemption:    preempt,
		LogPath:       logPath,
		MaxQueue:      maxQueue,
		SnapshotEvery: snapshotEvery,
		FsyncEvery:    fsyncEvery,
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if !quiet {
		durable := "in-memory"
		if srv.Durable() {
			durable = fmt.Sprintf("log %s (%d records replayed)", logPath, srv.Replayed())
		}
		fmt.Printf("toposerve: %s under %s on %s, %s, domains: %d\n", spec.Key(), pol, addr, durable, srv.Domains())
	}

	httpSrv := newHTTPServer(addr, srv.Handler())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case s := <-sig:
		if !quiet {
			fmt.Printf("toposerve: %v: draining\n", s)
		}
		// Stop admitting, let in-flight requests finish, then write the
		// final snapshot so the next start replays nothing.
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), drainFor)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			srv.Close()
			return err
		}
		return srv.Close()
	}
}
