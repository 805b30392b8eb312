package eventlog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"gputopo/internal/serveapi"
)

// refFrame is rec's frame as the log wrote it when every record was its
// own json.Marshal and two writes, the header and then the payload.
func refFrame(t *testing.T, rec Record) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var header [frameHeader]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	return append(header[:], payload...)
}

// refFrames is the concatenation of recs' reference frames.
func refFrames(t *testing.T, recs ...Record) []byte {
	t.Helper()
	var b []byte
	for _, r := range recs {
		b = append(b, refFrame(t, r)...)
	}
	return b
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// snapshotRec is a snapshot record with every field set.
func snapshotRec() Record {
	single := true
	return Record{Type: TypeSnapshot, Time: 9.25, Snapshot: &Snapshot{
		ClockSec: 9.25, DecSeq: 12,
		Stats: SnapStats{Decisions: 12, Placements: 7, Postponements: 4, SLOViolations: 1, WakeSkips: 3, Preemptions: 1, Evictions: 2},
		Running: []RunningJob{{
			Job:  serveapi.JobSpec{JobRequest: serveapi.JobRequest{ID: "r<1>", Model: "VGG-16", BatchSize: 8, GPUs: 2, SingleNode: &single}, Arrival: 1.5},
			GPUs: []int{4, 5}, Bandwidth: 2.75,
		}},
		Queued:     []serveapi.JobSpec{{JobRequest: serveapi.JobRequest{ID: "q&1", GPUs: 4, MinUtility: 0.5, Priority: 2}, Arrival: 8}},
		QueueState: []QueuedState{{Waited: 3, Postponed: 2, Parked: true}},
		Decisions:  []serveapi.DecisionRecord{{Seq: 12, Time: 9, JobID: "r<1>", Placed: true, GPUs: []int{4, 5}, Utility: 0.875}},
	}}
}

// everyRecordType holds one record of each type, with the fields that
// type sets, a snapshot included, and strings the encoder must escape.
func everyRecordType() []Record {
	single := false
	return []Record{
		{Type: TypeSubmit, Time: 1.5, Job: &serveapi.JobSpec{
			JobRequest: serveapi.JobRequest{ID: "a<b>&\"é\u2028", Model: "ResNet-50", BatchSize: 16, GPUs: 4, MinUtility: 0.3,
				Iterations: 500, SingleNode: &single, AntiCollocate: true, ModelParallel: true, Priority: 1},
			Arrival: 1.5,
		}},
		{Type: TypeRound, Time: 1.5},
		{Type: TypePlace, Time: 1.5, Decision: &serveapi.DecisionRecord{Seq: 1, Time: 1.5, JobID: "a", Placed: true,
			GPUs: []int{0, 1, 2, 3}, Utility: 0.1 + 0.2, SLOViolated: true, Postponements: 2}},
		{Type: TypeEvict, Time: 2, Decision: &serveapi.DecisionRecord{Seq: 2, Time: 2, JobID: "a", Reason: "preempted",
			Evicted: true, PreemptedBy: "hi", GPUs: []int{0, 1}}},
		{Type: TypeRelease, Time: 3, JobID: "a"},
		{Type: TypeWithdraw, Time: 1e21, JobID: "b"},
		snapshotRec(),
	}
}

// TestFramesMatchMarshal: a frame Append writes — every record type, a
// snapshot included — and the snapshot frame Rewrite writes are byte for
// byte the frames json.Marshal and the old two-write framing produced, so
// logs written before and after replay alike.
func TestFramesMatchMarshal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, _ := openCollect(t, path)
	recs := everyRecordType()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, path), refFrames(t, recs...); !bytes.Equal(got, want) {
		t.Fatalf("appended frames differ from json.Marshal's:\n got  %q\n want %q", got, want)
	}

	l, replayed := openCollect(t, path)
	if len(replayed) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(recs))
	}
	if err := l.Rewrite(snapshotRec()); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, path), refFrame(t, snapshotRec()); !bytes.Equal(got, want) || l.Size() != int64(len(want)) {
		t.Fatalf("rewritten snapshot frame differs from json.Marshal's (Size %d):\n got  %q\n want %q", l.Size(), got, want)
	}
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, path), refFrames(t, snapshotRec(), recs[0]); !bytes.Equal(got, want) {
		t.Fatalf("a frame appended after a Rewrite differs from json.Marshal's:\n got  %q\n want %q", got, want)
	}
}

// TestFlushWritesPendingFrames: appended frames stay out of the file until
// a Flush (or a Sync) writes them all; Size counts them from the Append
// on and equals the file's size once they are flushed.
func TestFlushWritesPendingFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, _ := openCollect(t, path)
	defer l.Close()
	batch := everyRecordType()[:3]
	for _, r := range batch {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	want := refFrames(t, batch...)
	if got := fileSize(t, path); got != 0 {
		t.Fatalf("file holds %d bytes before the Flush, want 0", got)
	}
	if l.Size() != int64(len(want)) {
		t.Fatalf("Size %d with the batch pending, want %d", l.Size(), len(want))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); !bytes.Equal(got, want) || l.Size() != int64(len(got)) {
		t.Fatalf("after the Flush the file holds %d bytes, Size %d; want the batch's %d bytes", len(got), l.Size(), len(want))
	}
	if err := l.Flush(); err != nil || fileSize(t, path) != int64(len(want)) {
		t.Fatalf("a Flush with nothing pending: %v, file %d bytes", err, fileSize(t, path))
	}
	if l.Syncs() != 0 {
		t.Fatalf("Flush issued %d fsyncs", l.Syncs())
	}

	// Sync flushes as well, and then fsyncs.
	if err := l.Append(batch[0]); err != nil {
		t.Fatal(err)
	}
	if fileSize(t, path) != int64(len(want)) {
		t.Fatal("an Append reached the file without a Flush")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	want = append(want, refFrame(t, batch[0])...)
	if got := readFile(t, path); !bytes.Equal(got, want) || l.Size() != int64(len(want)) || l.Syncs() != 1 {
		t.Fatalf("after the Sync: file %d bytes, Size %d, %d fsyncs; want %d, %d, 1", len(got), l.Size(), l.Syncs(), len(want), len(want))
	}
}

// TestFailedFlushRollsBack: a Flush whose write fails — here after a torn
// write left part of the batch in the file — drops the pending frames and
// reports the error; Truncate back to the Size read before the batch and
// a reopen leave exactly the records flushed before it.
func TestFailedFlushRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, _ := openCollect(t, path)
	kept := []Record{submitRec("a", 1), submitRec("b", 2)}
	for _, r := range kept {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	start := l.Size()
	for _, r := range []Record{submitRec("c", 3), {Type: TypeRound, Time: 3}} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	torn := l.pending.Bytes()[:l.pending.Len()/2+3]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l.f.Close()
	if err := l.Flush(); err == nil {
		t.Fatal("a Flush to a closed file succeeded")
	}
	if l.pending.Len() != 0 {
		t.Fatalf("a failed Flush kept %d pending bytes", l.pending.Len())
	}
	l.Close() // the file is closed already; its error says nothing new

	if err := Truncate(path, start); err != nil {
		t.Fatal(err)
	}
	l2, recs := openCollect(t, path)
	defer l2.Close()
	if len(recs) != len(kept) || recs[1].Job.ID != "b" || l2.TruncatedTail || l2.Size() != start || fileSize(t, path) != start {
		t.Fatalf("after the rollback: %d records, truncated tail %t, Size %d, file %d; want %d, false, %d",
			len(recs), l2.TruncatedTail, l2.Size(), fileSize(t, path), len(kept), start)
	}
}

// TestAppendFlushAllocatesNothing: once warm, framing a batch and writing
// it costs no allocation — the frame buffer, the encoder and the record it
// encodes from are the Log's own.
func TestAppendFlushAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the JSON encoder's pooled state allocates")
	}
	path := filepath.Join(t.TempDir(), "events.log")
	l, _ := openCollect(t, path)
	defer l.Close()
	recs := everyRecordType()[:6]
	if n := testing.AllocsPerRun(50, func() {
		for _, r := range recs {
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a warm batch of %d Appends and a Flush allocates %v objects, want 0", len(recs), n)
	}
}
