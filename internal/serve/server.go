// Package serve is the durable toposerve engine behind the /v1 HTTP
// API: one Server over N >= 1 scheduling domains. A domain is one
// single-writer goroutine that owns one scheduling core; the Server in
// front of them owns what is cluster-wide — the job-ID namespace, the
// placement router, the job → home-domain map, the drain flag and the
// one HTTP handler set. A topology spec without a /domains[...] suffix
// is the N = 1 case of the same code: a router with one candidate and
// an identity GPU map.
//
// HTTP handlers enqueue typed operations into the home domain's loop and
// wait. The loop drains every operation that is ready into one batch,
// applies them, runs ONE scheduling round over the whole batch, journals
// everything to the event log and fsyncs once (group commit) before
// replying — so the marginal cost of an arrival under load is an O(1)
// queue insert plus a share of one Schedule call and one fsync.
//
// Durability is per domain: every accepted submit/release/withdraw is an
// event-log record; every Schedule call is a round record; every
// placement is a place record. On start each log replays through the
// same code paths (rounds re-run Schedule at exactly the batch
// boundaries live traffic produced), recomputed placements are verified
// against the journaled ones, and a snapshot record — written on
// graceful shutdown and every SnapshotEvery appended records — bounds
// the replay. An unsplit spec journals at LogPath itself, a split one at
// LogPath.dN per domain.
//
// Admission control: when a domain's wait queue is at MaxQueue, submits
// routed to it are rejected with 429 and a Retry-After hint before
// touching the core.
package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gputopo/internal/schedcore"
	"gputopo/internal/schedcore/domains"
	"gputopo/internal/sweep"
	"gputopo/internal/topology"
)

const (
	// decisionLogCap bounds the in-memory decision ring: old entries are
	// dropped once the ring is full, appends stay O(1) on the writer loop.
	decisionLogCap = 4096
	// maxBatch bounds how many queued operations one scheduling round
	// amortizes, so a flood cannot starve reads on the same loop.
	maxBatch = 256
	// maxRequestBytes bounds the body of POST /v1/jobs; a job request is
	// a few hundred bytes, so anything near the limit is not one.
	maxRequestBytes = 1 << 20
	// DefaultSnapshotEvery is the replay bound when Config.SnapshotEvery
	// is zero: once this many records accumulate after the last snapshot,
	// the loop rewrites the log to a fresh snapshot.
	DefaultSnapshotEvery = 4096
	// retryAfterSec is the Retry-After hint (seconds) on 429 responses.
	retryAfterSec = 1
)

// Config configures a Server.
type Config struct {
	// Spec is the physical topology to serve (sweep's canonical specs, so
	// a served cluster and a simulated one are bit-compatible). Its
	// /domains[...] suffix, when present, splits the cluster into
	// scheduling domains.
	Spec sweep.TopologySpec
	// Policy is the placement policy.
	Policy schedcore.Policy
	// Discipline selects the queue discipline (schedcore.ParseDiscipline
	// names: "fifo", "priority"). Empty means FIFO-by-arrival, which is
	// byte-compatible with logs written before disciplines existed.
	Discipline string
	// Preemption enables topology-aware preemption: positive-priority
	// jobs that cannot place may evict strictly lower-priority running
	// jobs. A durable server must be reopened with the same Discipline
	// and Preemption it logged under, or replay diverges.
	Preemption bool
	// LogPath enables durability: the event log lives there (one log per
	// domain at LogPath.dN when the spec is split), is replayed on start
	// and group-committed per batch. Empty means in-memory only.
	LogPath string
	// MaxQueue is the admission-control depth limit, per domain: submits
	// arriving with the domain's wait queue at this length get 429 +
	// Retry-After. Zero means unlimited.
	MaxQueue int
	// SnapshotEvery bounds replay: after this many records accumulate
	// past the last snapshot the log is rewritten. Zero = default;
	// negative disables automatic snapshots (graceful Close still writes
	// one).
	SnapshotEvery int
	// FsyncEvery relaxes group commit: the log is fsynced once every N
	// batches instead of every batch, trading the durability of up to
	// N-1 acked batches against a machine crash for lower tail latency
	// under bursty load. Every batch's records are still written to the
	// OS in one write before its acks, so a crash of the process alone
	// loses none. 0 or 1 keeps the default (every batch durable before its
	// acks). Draining, snapshots and Close always sync regardless.
	FsyncEvery int
	// Now overrides the server's time source (seconds, monotonic) for
	// tests. The served clock is Now() plus the base recovered from the
	// log, so time stays monotonic across restarts. Nil = wall time
	// since start.
	Now func() float64
}

// Server serves one cluster through N >= 1 scheduling domains. It never
// touches a core: submissions are routed by the domains' published
// free-GPU counters and spill to the next admissible domain when the
// preferred one cannot seat the job now; every other operation follows
// the job to its home domain's loop.
type Server struct {
	cfg Config
	// split is whether the spec carries a /domains[...] suffix. It names
	// the logs (LogPath.dN, not LogPath) and puts the domains array into
	// /v1/state; nothing else reads it.
	split      bool
	discipline string
	doms       []*domain
	router     *domains.Router
	started    time.Time
	gpus       int // cluster-wide GPU count

	// machines[d] holds the global machine indices domain d owns;
	// gpuMaps[d] (domains.GPUMaps) maps the domain's local GPU positions
	// to global ones so every wire-visible placement uses cluster-wide
	// coordinates.
	machines [][]int
	gpuMaps  [][]int

	draining  atomic.Bool
	closeOnce sync.Once

	// mu guards the routing state: the home map (accepted job → domain),
	// the in-flight set (IDs submitted but not yet answered) and the
	// generated-ID counter. Routing itself happens under mu so the
	// counter reads and the spill decision are atomic per submission.
	mu      sync.Mutex
	home    map[string]int
	pending map[string]bool
	seq     int
}

// New partitions the spec's cluster into its scheduling domains (one,
// covering every machine, when the spec has no /domains[...] suffix),
// builds each domain's substrate (the same profile-store construction
// the sweep engine uses), replays its event log when one is configured,
// and starts its writer loop.
func New(cfg Config) (*Server, error) {
	sp, subs, groups, err := cfg.Spec.PartitionDomains(1)
	if err != nil {
		return nil, err
	}
	disc, err := schedcore.ParseDiscipline(cfg.Discipline)
	if err != nil {
		return nil, err
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	s := &Server{
		cfg:        cfg,
		split:      sp.Enabled(),
		discipline: disc.Name(),
		machines:   groups,
		home:       map[string]int{},
		pending:    map[string]bool{},
	}
	caps := make([]domains.Capacity, len(subs))
	topos := make([]*topology.Topology, len(subs))
	for d, sub := range subs {
		dcfg := cfg
		dcfg.Spec = sub
		if s.split && cfg.LogPath != "" {
			dcfg.LogPath = fmt.Sprintf("%s.d%d", cfg.LogPath, d)
		}
		dom, err := newDomain(dcfg, disc, &s.draining)
		if err != nil {
			s.Kill()
			return nil, fmt.Errorf("serve: domain %d (%s): %w", d, sub.Key(), err)
		}
		s.doms = append(s.doms, dom)
		caps[d], topos[d] = domains.CapacityOf(dom.topo), dom.topo
		s.gpus += dom.topo.NumGPUs()
		// Recovery rebuilds the routing state the per-domain replays
		// cannot: the home map and the generated-ID counter live up here,
		// not in any log. Every replayed job is homed to the domain that
		// journaled it — so releases and withdrawals of pre-crash jobs find
		// their loop — and the counter resumes above the largest recovered
		// job-N, so fresh generated IDs never collide with replayed ones.
		// The loop is idle until the first request, so its core is ours.
		ids := dom.core.Running()
		for _, j := range dom.core.Queued() {
			ids = append(ids, j.ID)
		}
		for _, id := range ids {
			if prev, taken := s.home[id]; taken {
				s.Kill()
				return nil, fmt.Errorf("serve: job %q recovered in domains %d and %d: per-domain logs violate the global ID namespace", id, prev, d)
			}
			s.home[id] = d
			if rest, generated := strings.CutPrefix(id, "job-"); generated {
				if n, err := strconv.Atoi(rest); err == nil && n > s.seq {
					s.seq = n
				}
			}
		}
	}
	if s.gpuMaps, err = domains.GPUMaps(topos, groups); err != nil {
		s.Kill()
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.router = domains.NewRouter(caps, func(d int) (int, int, int) { return s.doms[d].freeCounters() })
	s.started = time.Now()
	return s, nil
}

// NewMulti is New; the frozen cmd/topoperf is its only caller
// (docs/performance.md, "The frozen benchmark contract").
func NewMulti(cfg Config) (*Server, error) { return New(cfg) }

// Domains returns the number of scheduling domains (1 for an unsplit
// spec).
func (s *Server) Domains() int { return len(s.doms) }

// Replayed returns the number of event-log records applied at startup,
// summed over the domains — the measured replay bound. A domain that
// rolled a failed batch back counts the records that replay applied.
func (s *Server) Replayed() int {
	n := 0
	for _, d := range s.doms {
		n += d.replayed
	}
	return n
}

// Durable reports whether event logs back this server.
func (s *Server) Durable() bool { return s.cfg.LogPath != "" }

// BeginDrain stops admitting submissions (503 draining); releases and
// reads continue so running work can finish. Safe from any goroutine.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close shuts down gracefully: stop every loop, write a final snapshot
// per log (bounding the next start's replay to one record each) and
// close the logs. Returns the first error.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		for _, d := range s.doms {
			if cerr := d.stop(true); err == nil {
				err = cerr
			}
		}
	})
	return err
}

// Kill stops the server WITHOUT the final snapshots — the shutdown path
// of a crash, kept honest for the kill-and-restart recovery tests. All
// acked operations are already fsynced, so nothing is lost; the next
// start replays the raw logs.
func (s *Server) Kill() {
	s.closeOnce.Do(func() {
		for _, d := range s.doms {
			d.stop(false)
		}
	})
}
