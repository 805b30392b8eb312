package eventlog

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gputopo/internal/serveapi"
)

func openCollect(t *testing.T, path string) (*Log, []Record) {
	t.Helper()
	var recs []Record
	l, err := Open(path, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func submitRec(id string, at float64) Record {
	return Record{Type: TypeSubmit, Time: at, Job: &serveapi.JobSpec{
		JobRequest: serveapi.JobRequest{ID: id, Model: "AlexNet", BatchSize: 1, GPUs: 1},
		Arrival:    at,
	}}
}

// TestAppendReplayRoundTrip: records written in one session replay
// identically in the next.
func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, recs := openCollect(t, path)
	if len(recs) != 0 || l.Records() != 0 {
		t.Fatalf("fresh log not empty: %d records", len(recs))
	}
	want := []Record{
		submitRec("a", 1),
		{Type: TypeRound, Time: 1},
		{Type: TypePlace, Time: 1, Decision: &serveapi.DecisionRecord{Seq: 1, JobID: "a", Placed: true, GPUs: []int{0}}},
		{Type: TypeRelease, Time: 2, JobID: "a"},
		{Type: TypeRound, Time: 2},
		{Type: TypeWithdraw, Time: 3, JobID: "b"},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got := openCollect(t, path)
	defer l2.Close()
	if l2.TruncatedTail {
		t.Fatal("clean log reported a truncated tail")
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].Time != want[i].Time || got[i].JobID != want[i].JobID {
			t.Fatalf("record %d drifted: %+v vs %+v", i, got[i], want[i])
		}
	}
	if got[0].Job == nil || got[0].Job.ID != "a" || got[2].Decision == nil || got[2].Decision.GPUs[0] != 0 {
		t.Fatalf("payloads drifted: %+v", got)
	}
	if l2.Records() != len(want) || l2.SinceRewrite() != len(want) {
		t.Fatalf("counters: records=%d since=%d", l2.Records(), l2.SinceRewrite())
	}
}

// TestTruncatedTailTolerated chops the file at every byte boundary
// inside the final record: each prefix must open cleanly, replay all
// complete records, report the tail truncation, and append correctly
// afterwards.
func TestTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.log")
	l, _ := openCollect(t, ref)
	for i, r := range []Record{submitRec("a", 1), submitRec("b", 2), submitRec("c", 3)} {
		if err := l.Append(r); err != nil {
			t.Fatal(i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Find the start of the third record: two frames in.
	var off int
	for i := 0; i < 2; i++ {
		off += frameHeader + int(binary.LittleEndian.Uint32(data[off:]))
	}
	for cut := off + 1; cut < len(data); cut++ {
		path := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, recs := openCollect(t, path)
		if !l2.TruncatedTail || l2.Size() != int64(off) {
			t.Fatalf("cut at %d: truncated tail not reported, or Size %d is not the last complete frame's end %d", cut, l2.Size(), off)
		}
		if len(recs) != 2 || recs[0].Job.ID != "a" || recs[1].Job.ID != "b" {
			t.Fatalf("cut at %d: replayed %+v", cut, recs)
		}
		// The partial tail must be gone: appending and reopening yields
		// exactly 3 records again.
		if err := l2.Append(submitRec("c2", 4)); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		l3, recs3 := openCollect(t, path)
		if l3.TruncatedTail || len(recs3) != 3 || recs3[2].Job.ID != "c2" {
			t.Fatalf("cut at %d: after repair+append got %+v", cut, recs3)
		}
		l3.Close()
	}
}

// TestMidFileCorruptionFailsLoudly flips one payload byte in the middle
// record: Open must fail with a CRC error, never silently skip.
func TestMidFileCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.log")
	l, _ := openCollect(t, path)
	for _, r := range []Record{submitRec("a", 1), submitRec("b", 2), submitRec("c", 3)} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := frameHeader + int(binary.LittleEndian.Uint32(data[0:4]))
	data[firstLen+frameHeader+2] ^= 0xFF // a byte inside record b's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path, nil)
	if err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("corruption tolerated: %v", err)
	}
}

// TestCorruptLengthMidFile: garbling a mid-file length prefix (small
// value, frames misalign) must also fail loudly via the CRC.
func TestCorruptLengthMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, _ := openCollect(t, path)
	for _, r := range []Record{submitRec("a", 1), submitRec("b", 2), submitRec("c", 3)} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, _ := os.ReadFile(path)
	firstLen := frameHeader + int(binary.LittleEndian.Uint32(data[0:4]))
	binary.LittleEndian.PutUint32(data[firstLen:], binary.LittleEndian.Uint32(data[firstLen:])-3)
	os.WriteFile(path, data, 0o644)
	if _, err := Open(path, nil); err == nil {
		t.Fatal("misaligned frames tolerated")
	}
}

// TestRewriteTruncates: Rewrite leaves exactly the snapshot record;
// subsequent appends land after it and SinceRewrite counts only them.
func TestRewriteTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, _ := openCollect(t, path)
	for i := 0; i < 10; i++ {
		if err := l.Append(submitRec("x", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := Record{Type: TypeSnapshot, Time: 10, Snapshot: &Snapshot{
		ClockSec: 10, DecSeq: 7,
		Running: []RunningJob{{Job: serveapi.JobSpec{JobRequest: serveapi.JobRequest{ID: "x", GPUs: 1}}, GPUs: []int{0}, Bandwidth: 1.5}},
	}}
	if err := l.Rewrite(snap); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 1 || l.SinceRewrite() != 0 {
		t.Fatalf("after rewrite: records=%d since=%d", l.Records(), l.SinceRewrite())
	}
	if err := l.Append(submitRec("y", 11)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs := openCollect(t, path)
	defer l2.Close()
	if len(recs) != 2 || recs[0].Type != TypeSnapshot || recs[1].Job.ID != "y" {
		t.Fatalf("after rewrite+append replayed %+v", recs)
	}
	if recs[0].Snapshot == nil || recs[0].Snapshot.DecSeq != 7 || len(recs[0].Snapshot.Running) != 1 {
		t.Fatalf("snapshot payload drifted: %+v", recs[0].Snapshot)
	}
	// A leading snapshot does not count toward the replay bound.
	if l2.SinceRewrite() != 1 {
		t.Fatalf("SinceRewrite after reopen = %d, want 1", l2.SinceRewrite())
	}
}

// TestSyncIdempotent: Sync with nothing appended is a no-op; Append
// marks dirty again.
func TestSyncIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, _ := openCollect(t, path)
	defer l.Close()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(submitRec("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.dirty {
		t.Fatal("dirty after sync")
	}
}

// TestApplyErrorAborts: an apply callback error aborts Open.
func TestApplyErrorAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, _ := openCollect(t, path)
	l.Append(submitRec("a", 1))
	l.Close()
	_, err := Open(path, func(Record) error { return os.ErrInvalid })
	if err == nil {
		t.Fatal("apply error swallowed")
	}
}

// fileSize is the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestTruncateDropsLaterRecords: Size reads the end of the complete
// frames after an append, a reopen and a rewrite, and Truncate back to a
// Size reading — on the path, after the Log was closed — leaves exactly
// the records appended before it, which a reopen replays and appends
// after.
func TestTruncateDropsLaterRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, _ := openCollect(t, path)
	for i := 0; i < 3; i++ {
		if err := l.Append(submitRec("kept", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	mark := l.Size()
	if err := l.Append(submitRec("dropped", 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); mark >= got {
		t.Fatalf("Size %d before the last append, file %d after it", mark, got)
	}
	if err := Truncate(path, mark); err != nil {
		t.Fatal(err)
	}
	l2, recs := openCollect(t, path)
	if len(recs) != 3 || l2.TruncatedTail || l2.Size() != mark || fileSize(t, path) != mark {
		t.Fatalf("after Truncate: %d records, truncated tail %t, Size %d, file %d; want 3, false, %d", len(recs), l2.TruncatedTail, l2.Size(), fileSize(t, path), mark)
	}
	if err := l2.Append(submitRec("after", 4)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Rewrite(Record{Type: TypeSnapshot, Time: 4, Snapshot: &Snapshot{ClockSec: 4}}); err != nil {
		t.Fatal(err)
	}
	if l2.Size() != fileSize(t, path) {
		t.Fatalf("after Rewrite: Size %d, file %d", l2.Size(), fileSize(t, path))
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Truncate(filepath.Join(filepath.Dir(path), "missing.log"), 0); err == nil {
		t.Fatal("Truncate of a missing log succeeded")
	}
}

// TestRewriteFailureKeepsLog: a snapshot Rewrite that fails — here the
// record does not marshal — leaves the old log as it was: the same
// records, still open for appending.
func TestRewriteFailureKeepsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, _ := openCollect(t, path)
	for i := 0; i < 3; i++ {
		if err := l.Append(submitRec("a", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	size := l.Size()
	if err := l.Rewrite(Record{Type: TypeSnapshot, Time: math.NaN(), Snapshot: &Snapshot{}}); err == nil {
		t.Fatal("a snapshot that cannot be marshalled was written")
	}
	if l.Records() != 3 || l.Size() != size || fileSize(t, path) != size {
		t.Fatalf("after the failed Rewrite: %d records, Size %d, file %d; want 3, %d", l.Records(), l.Size(), fileSize(t, path), size)
	}
	if err := l.Append(submitRec("b", 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs := openCollect(t, path)
	defer l2.Close()
	if len(recs) != 4 || recs[3].Job.ID != "b" {
		t.Fatalf("after the failed Rewrite and an append, replayed %d records", len(recs))
	}
}
