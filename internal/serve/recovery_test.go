package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gputopo/internal/eventlog"
	"gputopo/internal/schedcore"
	"gputopo/internal/serveapi"
	"gputopo/internal/serveapi/client"
	"gputopo/internal/sweep"
	"gputopo/internal/workload"
)

// pinnedState fetches /v1/state, strips the volatile fields and returns
// both the struct and its canonical JSON bytes.
func pinnedState(t *testing.T, c *client.Client) (*serveapi.StateResponse, []byte) {
	t.Helper()
	st, err := c.State(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	st.ClearVolatile()
	js, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return st, js
}

// TestKillAndRestartRecovery is the acceptance test of the durability
// tentpole: drive a realistic mixed workload (submits saturating the
// cluster, releases waking queued jobs) against a durable server, kill
// it WITHOUT the shutdown snapshot, restart on the same log, and pin
// /v1/state byte-for-byte (volatile fields cleared). Then shut down
// gracefully and check the snapshot bounds the next replay to a single
// record while still reproducing the state byte-for-byte.
func TestKillAndRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "events.log")
	spec := specArg(t, "minsky:2")
	cfg := Config{Spec: spec, Policy: schedcore.TopoAwareP, LogPath: logPath, SnapshotEvery: -1}

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL)
	ctx := ctxT(t)
	mixedTraffic(t, spec, c1)
	st1, js1 := pinnedState(t, c1)
	if len(st1.Running) == 0 || len(st1.Queue) == 0 {
		t.Fatalf("workload left no mixed state to recover: %+v", st1)
	}
	dec1, _, err := c1.AllDecisions(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Kill() // crash: no shutdown snapshot

	// Restart on the raw log: replay re-drives every record.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if srv2.Replayed() == 0 {
		t.Fatal("restart replayed nothing")
	}
	ts2 := httptest.NewServer(srv2.Handler())
	c2 := client.New(ts2.URL)

	_, js2 := pinnedState(t, c2)
	if string(js1) != string(js2) {
		t.Fatalf("/v1/state diverged across kill+restart:\n before: %s\n after:  %s", js1, js2)
	}
	dec2, _, err := c2.AllDecisions(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec1, dec2) {
		t.Fatalf("decision ring diverged: %d vs %d records", len(dec1), len(dec2))
	}

	// The recovered server keeps serving: submit once more, then shut
	// down gracefully — the final snapshot truncates the log.
	if _, err := c2.SubmitJob(ctx, serveapi.JobRequest{ID: "post-crash", GPUs: 1}); err != nil {
		t.Fatal(err)
	}
	_, js2b := pinnedState(t, c2)
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third generation: replay is bounded to exactly the snapshot record.
	srv3, err := New(cfg)
	if err != nil {
		t.Fatalf("post-snapshot recovery failed: %v", err)
	}
	if srv3.Replayed() != 1 {
		t.Fatalf("snapshot did not bound replay: %d records replayed, want 1", srv3.Replayed())
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	defer srv3.Close()
	_, js3 := pinnedState(t, client.New(ts3.URL))
	if string(js2b) != string(js3) {
		t.Fatalf("/v1/state diverged across snapshot restore:\n before: %s\n after:  %s", js2b, js3)
	}
}

// mixedTraffic drives 30 generated jobs at c: every 6th submit is
// followed by releasing the oldest still-running job, so the log carries
// release + wake-up rounds, not just a submit burst.
func mixedTraffic(t *testing.T, spec sweep.TopologySpec, c *client.Client) {
	t.Helper()
	topo, err := spec.Build(spec.EffectiveMachines(1), false)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(workload.GenConfig{Jobs: 30, Seed: 42, ArrivalRate: 10}, topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t)
	var placed []string
	released := 0
	for i, j := range jobs {
		jr, err := c.SubmitJob(ctx, serveapi.JobRequest{
			ID: j.ID, Model: j.Model.String(), BatchSize: j.BatchSize,
			GPUs: j.GPUs, MinUtility: j.MinUtility, Iterations: j.Iterations,
		})
		if err != nil {
			t.Fatalf("submit %s: %v", j.ID, err)
		}
		if jr.Status == "placed" {
			placed = append(placed, jr.ID)
		}
		if i%6 == 5 && released < len(placed) {
			rr, err := c.ReleaseJob(ctx, placed[released])
			if err != nil || rr.Status != "released" {
				t.Fatalf("release %s: %+v %v", placed[released], rr, err)
			}
			released++
		}
	}
}

// TestKillAfterPeriodicSnapshotRecovers: the log holds a periodic
// snapshot taken while TOPO-AWARE-P had jobs parked in its wake-up index,
// then a tail whose rounds place. A kill and restart must replay that
// tail to the live /v1/state and decision ring, which needs the snapshot
// to restore each queued job parked or not, with its rounds waited.
func TestKillAfterPeriodicSnapshotRecovers(t *testing.T) {
	spec := specArg(t, "minsky:2")
	logPath := filepath.Join(t.TempDir(), "events.log")
	cfg := Config{Spec: spec, Policy: schedcore.TopoAwareP, LogPath: logPath, SnapshotEvery: 24}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL)
	mixedTraffic(t, spec, c1)
	_, js1 := pinnedState(t, c1)
	dec1, _, err := c1.AllDecisions(ctxT(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Kill()
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	srv2, c2 := startServer(t, cfg)
	if srv2.Replayed() < 2 {
		t.Fatalf("replayed %d records, want a snapshot and a tail", srv2.Replayed())
	}
	if _, js2 := pinnedState(t, c2); string(js1) != string(js2) {
		t.Fatalf("/v1/state diverged across kill+restart:\n before: %s\n after:  %s", js1, js2)
	}
	dec2, _, err := c2.AllDecisions(ctxT(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec1, dec2) {
		t.Fatalf("decision ring diverged: %d vs %d records", len(dec1), len(dec2))
	}
	if !bytes.Contains(raw, []byte(`"parked":true`)) {
		t.Fatal("the log's snapshot holds no parked job, so the recipe no longer reaches the restore path")
	}
}

// TestSnapshotCarryingGateSkipCounterRestores: logs written before the
// version gate was deleted carry a gate_skips counter in the snapshot's
// stats. The record decoder ignores fields it does not know, so such a
// snapshot must restore without error and serve exactly the state a
// snapshot written today restores to.
func TestSnapshotCarryingGateSkipCounterRestores(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "events.log")
	cfg := Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP, LogPath: logPath, SnapshotEvery: -1}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL)
	// Two 2-GPU jobs fill the machine; the third queues, so the snapshot
	// carries running jobs, a queue, decisions and non-zero counters.
	for i := 0; i < 3; i++ {
		if _, err := c1.SubmitJob(ctxT(t), serveapi.JobRequest{ID: fmt.Sprintf("g%d", i), GPUs: 2}); err != nil {
			t.Fatal(err)
		}
	}
	st1, js1 := pinnedState(t, c1)
	if len(st1.Running) != 2 || len(st1.Queue) != 1 || st1.Stats.Postponements == 0 {
		t.Fatalf("setup left no mixed state to snapshot: %+v", st1)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil { // graceful: the log is now one snapshot record
		t.Fatal(err)
	}

	// Re-frame the snapshot with the old counter spliced into its stats.
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[8:] // uint32 length | uint32 CRC | JSON
	if bytes.Contains(payload, []byte("gate_skips")) {
		t.Fatal("snapshots still write gate_skips; this test needs the old shape spliced in")
	}
	old := bytes.Replace(payload, []byte(`"stats":{`), []byte(`"stats":{"gate_skips":459,`), 1)
	if bytes.Equal(old, payload) {
		t.Fatalf("no stats block to splice into: %s", payload)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(old)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(old))
	if err := os.WriteFile(logPath, append(frame, old...), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := startServer(t, cfg)
	if srv2.Replayed() != 1 {
		t.Fatalf("replayed %d records, want the 1 snapshot", srv2.Replayed())
	}
	if _, js2 := pinnedState(t, c2); string(js1) != string(js2) {
		t.Fatalf("/v1/state diverged restoring a snapshot with gate_skips:\n before: %s\n after:  %s", js1, js2)
	}
}

// TestOpensTimedSnapshotLog: testdata/timed_snapshot.log was written
// while snapshots still journaled the wall-clock decision timers
// (decision_time_ns, max_decision_ns): 30 mixed submits and releases on
// minsky:2, then a graceful stop, so it holds the one shutdown snapshot
// an upgrade restarts from. It must open, replay and serve the /v1/state
// recorded before the stop (timed_snapshot.state.json), apart from the
// volatile fields.
func TestOpensTimedSnapshotLog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "timed_snapshot.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"decision_time_ns":`, `"max_decision_ns":`} {
		if !bytes.Contains(raw, []byte(field)) {
			t.Fatalf("the recorded log carries no %s", field)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "timed_snapshot.state.json"))
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "events.log")
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, c := startServer(t, Config{Spec: specArg(t, "minsky:2"), Policy: schedcore.TopoAwareP, LogPath: logPath, SnapshotEvery: -1})
	if srv.Replayed() != 1 {
		t.Fatalf("replayed %d records, want the 1 snapshot", srv.Replayed())
	}
	if _, got := pinnedState(t, c); string(got) != string(bytes.TrimSpace(want)) {
		t.Fatalf("/v1/state diverged from the recording:\n want: %s\n got:  %s", want, got)
	}
}

// TestSnapshotEveryBoundsReplay: with SnapshotEvery=8 a long submit
// stream keeps the log short — the next open replays far fewer records
// than the operations performed.
func TestSnapshotEveryBoundsReplay(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "events.log")
	cfg := Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP, LogPath: logPath, SnapshotEvery: 8}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := client.New(ts.URL)
	ctx := ctxT(t)
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: fmt.Sprintf("s%d", i), GPUs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var since int
	srv.doms[0].do(func() { since = srv.doms[0].log.SinceRewrite() })
	if since >= n {
		t.Fatalf("log never snapshotted: %d records since rewrite after %d ops", since, n)
	}
	ts.Close()
	srv.Kill() // keep the raw post-snapshot tail

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	// Replay = 1 snapshot + the bounded tail; far below 2*n records a
	// raw log of n submits+rounds+places would hold.
	if srv2.Replayed() > 2*8+2 {
		t.Fatalf("replay not bounded: %d records", srv2.Replayed())
	}
	var queued, running int
	srv2.doms[0].do(func() {
		queued = srv2.doms[0].core.QueueLen()
		running = len(srv2.doms[0].core.State().Jobs())
	})
	if running+queued != n {
		t.Fatalf("recovered %d running + %d queued, want %d total", running, queued, n)
	}
}

// TestReplayDivergenceFailsLoudly hand-writes a log whose place record
// contradicts what the policies recompute: recovery must refuse to
// start rather than serve a cluster its journal does not describe.
func TestReplayDivergenceFailsLoudly(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "events.log")
	l, err := eventlog.Open(logPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := serveapi.JobSpec{
		JobRequest: serveapi.JobRequest{ID: "d1", Model: "AlexNet", BatchSize: 4, GPUs: 2},
		Arrival:    0.5,
	}
	records := []eventlog.Record{
		{Type: eventlog.TypeSubmit, Time: 0.5, Job: &spec},
		{Type: eventlog.TypeRound, Time: 0.5},
		// The recomputed round will place d1 — but on whatever GPUs the
		// policy picks, with seq 1. This record claims a different
		// placement entirely.
		{Type: eventlog.TypePlace, Time: 0.5, Decision: &serveapi.DecisionRecord{
			Seq: 1, JobID: "d1", Placed: true, GPUs: []int{97, 98},
		}},
	}
	for _, r := range records {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP, LogPath: logPath})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergent log accepted: %v", err)
	}
}

// TestSnapshotQueueStateMustAlignWithQueue: a snapshot whose queue_state
// does not pair one entry with each queued job fails recovery instead of
// restoring some jobs without their bookkeeping.
func TestSnapshotQueueStateMustAlignWithQueue(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "events.log")
	l, err := eventlog.Open(logPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	queued := func(id string) serveapi.JobSpec {
		return serveapi.JobSpec{JobRequest: serveapi.JobRequest{ID: id, GPUs: 1}}
	}
	sn := &eventlog.Snapshot{
		Queued:     []serveapi.JobSpec{queued("q1"), queued("q2")},
		QueueState: []eventlog.QueuedState{{Waited: 1}},
	}
	if err := l.Append(eventlog.Record{Type: eventlog.TypeSnapshot, Snapshot: sn}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP, LogPath: logPath})
	if err == nil || !strings.Contains(err.Error(), "1 queue states for 2 queued jobs") {
		t.Fatalf("misaligned queue_state accepted: %v", err)
	}
}

// TestReplayToleratesTornBatch: a crash can persist a round record but
// lose the place records behind it (the batch never synced). Recovery
// must accept the log — the round's recomputed placements were never
// acked, so there is nothing to verify them against.
func TestReplayToleratesTornBatch(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "events.log")
	l, err := eventlog.Open(logPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := serveapi.JobSpec{
		JobRequest: serveapi.JobRequest{ID: "t1", Model: "AlexNet", BatchSize: 4, GPUs: 2},
		Arrival:    1,
	}
	for _, r := range []eventlog.Record{
		{Type: eventlog.TypeSubmit, Time: 1, Job: &spec},
		{Type: eventlog.TypeRound, Time: 1},
		// ...and the place records are gone with the crash.
	} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP, LogPath: logPath})
	if err != nil {
		t.Fatalf("torn batch rejected: %v", err)
	}
	defer srv.Close()
	var running int
	srv.doms[0].do(func() { running = len(srv.doms[0].core.State().Jobs()) })
	if running != 1 {
		t.Fatalf("t1 not recovered as running: %d jobs", running)
	}
}

// TestRecoveryMonotonicClock: the restarted server's clock resumes past
// the log's highest timestamp, so post-restart arrivals never precede
// recovered ones.
func TestRecoveryMonotonicClock(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "events.log")
	var fake float64
	cfg := Config{Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP, LogPath: logPath,
		Now: func() float64 { return fake }}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := client.New(ts.URL)
	ctx := ctxT(t)
	fake = 100
	if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "early", GPUs: 4, BatchSize: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: "waits", GPUs: 4, BatchSize: 4}); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv.Kill()

	fake = 0 // the process restarted; its time source reset
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()
	c2 := client.New(ts2.URL)
	jr, err := c2.SubmitJob(ctx, serveapi.JobRequest{ID: "later", GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if jr.Time < 100 {
		t.Fatalf("clock went backwards after restart: t=%v", jr.Time)
	}
	st, err := c2.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range st.Queue {
		if q.ID == "later" && q.Arrival < 100 {
			t.Fatalf("post-restart arrival %v precedes recovered arrivals", q.Arrival)
		}
	}
}

// TestFsyncEveryBatchesSyncs pins the group-commit relaxation: with
// FsyncEvery=4, eight sequential submits (one batch each) pay exactly
// two fsyncs where the default pays eight — that IS the durability
// trade the flag documents, counted rather than simulated. Either way
// every acked batch's records are already written to the file, and
// graceful close still syncs the tail, so a restart recovers every job.
func TestFsyncEveryBatchesSyncs(t *testing.T) {
	syncsAfter := func(fsyncEvery int) (int, Config) {
		logPath := filepath.Join(t.TempDir(), "events.log")
		cfg := Config{
			Spec: specArg(t, "minsky:1"), Policy: schedcore.TopoAwareP,
			LogPath: logPath, SnapshotEvery: -1, FsyncEvery: fsyncEvery,
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		c := client.New(ts.URL)
		ctx := ctxT(t)
		for i := 0; i < 8; i++ {
			if _, err := c.SubmitJob(ctx, serveapi.JobRequest{ID: fmt.Sprintf("s%d", i), GPUs: 1}); err != nil {
				t.Fatal(err)
			}
			dom := srv.doms[0]
			var appended int64
			dom.do(func() { appended = dom.log.Size() })
			info, err := os.Stat(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != appended {
				t.Fatalf("FsyncEvery=%d: submit %d acked with %d bytes appended but %d in the file", fsyncEvery, i, appended, info.Size())
			}
		}
		st, err := c.State(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Log == nil {
			t.Fatal("durable server reports no log gauges")
		}
		if st.Log.Records == 0 || st.Log.BytesSinceSnapshot == 0 {
			t.Fatalf("log gauges empty after 8 submits: %+v", st.Log)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		return st.Log.Syncs, cfg
	}

	def, _ := syncsAfter(0)
	if def != 8 {
		t.Fatalf("default group commit issued %d fsyncs for 8 batches, want 8", def)
	}
	batched, cfg := syncsAfter(4)
	if batched != 2 {
		t.Fatalf("FsyncEvery=4 issued %d fsyncs for 8 batches, want 2", batched)
	}

	// Durability after graceful close is unaffected: all 8 jobs recover.
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var total int
	srv.doms[0].do(func() { total = srv.doms[0].core.QueueLen() + len(srv.doms[0].core.State().Jobs()) })
	if total != 8 {
		t.Fatalf("recovered %d jobs under FsyncEvery, want 8", total)
	}
}

// TestWithdrawnJobStaysGoneAcrossRestarts: a queued job withdrawn by a
// DELETE is journaled as a withdrawal. A restart from the raw log after
// Kill replays it, and a restart from the snapshot a graceful Close wrote
// starts without it; either way /v1/state reads as before the restart,
// the withdrawn job answers 404, and every recovered job is homed to the
// domain that holds it, so its DELETE answers 200.
func TestWithdrawnJobStaysGoneAcrossRestarts(t *testing.T) {
	for _, arg := range []string{"minsky:2", "minsky:4/domains[hash:2]"} {
		t.Run(arg, func(t *testing.T) {
			ctx := ctxT(t)
			dir := t.TempDir()
			spec := specArg(t, arg)
			cfg := Config{Spec: spec, Policy: schedcore.TopoAwareP, LogPath: filepath.Join(dir, "events.log"), SnapshotEvery: -1}
			srv1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(srv1.Handler())
			c1 := client.New(ts1.URL)
			mixedTraffic(t, spec, c1)
			st0, _ := pinnedState(t, c1)
			if len(st0.Running) == 0 || len(st0.Queue) < 2 {
				t.Fatalf("workload left no mixed state to recover: %+v", st0)
			}
			gone := st0.Queue[0].ID
			if rr, err := c1.ReleaseJob(ctx, gone); err != nil || rr.Status != "withdrawn" {
				t.Fatalf("DELETE %s: %+v %v", gone, rr, err)
			}
			st1, js1 := pinnedState(t, c1)
			if len(st1.Queue) != len(st0.Queue)-1 || len(st1.Running) != len(st0.Running) {
				t.Fatalf("the withdrawal changed more than the queue: %+v", st1)
			}
			ts1.Close()
			srv1.Kill()

			// The snapshot restart runs on a copy of the raw log.
			snapDir := t.TempDir()
			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				b, err := os.ReadFile(filepath.Join(dir, f.Name()))
				if err == nil {
					err = os.WriteFile(filepath.Join(snapDir, f.Name()), b, 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			snapCfg := cfg
			snapCfg.LogPath = filepath.Join(snapDir, "events.log")
			srv, err := New(snapCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			for _, restart := range []struct {
				name     string
				cfg      Config
				snapshot bool
			}{{"raw log", cfg, false}, {"snapshot", snapCfg, true}} {
				srv, err := New(restart.cfg)
				if err != nil {
					t.Fatalf("%s: %v", restart.name, err)
				}
				if restart.snapshot && srv.Replayed() != srv.Domains() {
					t.Fatalf("%s: %d records replayed over %d domains, want one snapshot each", restart.name, srv.Replayed(), srv.Domains())
				}
				ts := httptest.NewServer(srv.Handler())
				c := client.New(ts.URL)
				st, js := pinnedState(t, c)
				if string(js) != string(js1) {
					t.Fatalf("%s: /v1/state diverged:\n before: %s\n after:  %s", restart.name, js1, js)
				}
				var apiErr *client.APIError
				if _, err := c.ReleaseJob(ctx, gone); !asAPIError(err, &apiErr) || apiErr.Status != 404 {
					t.Fatalf("%s: DELETE of the withdrawn %s: %v, want 404", restart.name, gone, err)
				}
				var ids []string
				for _, r := range st.Running {
					ids = append(ids, r.ID)
				}
				for _, q := range st.Queue {
					ids = append(ids, q.ID)
				}
				for _, id := range ids {
					if _, err := c.ReleaseJob(ctx, id); err != nil {
						t.Fatalf("%s: DELETE %s: %v", restart.name, id, err)
					}
				}
				ts.Close()
				srv.Kill()
			}
		})
	}
}
