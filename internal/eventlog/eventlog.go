// Package eventlog is toposerve's durability layer: an append-only log
// of length-prefixed, checksummed JSON records (submit / place / release
// / withdraw / round / snapshot) with group-commit fsync batching and
// snapshot + truncate so replay stays bounded.
//
// On-disk framing, per record:
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | JSON payload
//
// Crash tolerance follows from the framing: a record is visible only
// once its full frame is on disk, so a crash mid-append leaves a
// truncated tail that Open drops (and truncates away) without error —
// the record never committed. Anything else that fails the CRC or the
// frame arithmetic mid-file is real corruption and fails loudly; a
// scheduler must not silently resurrect from a damaged history.
//
// Append frames a record into a buffer the Log owns; Flush writes every
// pending frame in one write(2), into the OS; Sync flushes and issues
// the fsync. The single-writer serving loop appends every record of a
// request batch, then flushes (or syncs) once before it answers the
// batch: a batch is one write and at most one fsync, amortized over N
// arrivals (group commit), and an acked batch's records are in the OS
// as they were when every record was its own write.
package eventlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// maxRecord bounds one record's payload (a snapshot of a big cluster is
// comfortably under this); larger length prefixes mid-file are
// corruption, not data.
const maxRecord = 1 << 28 // 256 MiB

const frameHeader = 8 // uint32 length + uint32 crc

// maxPending bounds the frame buffer a Log keeps between flushes: one that
// grew past it (a big snapshot) is dropped rather than held for the log's
// lifetime.
const maxPending = 64 << 10

// A Log is an open event log. It is not safe for concurrent use — the
// serving loop's single-writer rule covers it.
type Log struct {
	path  string
	f     *os.File
	dirty bool // appended to since the last fsync

	// pending holds the frames appended since the last Flush, back to
	// back as they go to disk. enc encodes each payload into it from rec,
	// a field so that encoding boxes nothing.
	pending bytes.Buffer
	enc     *json.Encoder
	rec     Record

	size         int64 // bytes of the frames appended, pending ones included
	records      int   // frames appended, pending ones included
	sinceRewrite int   // records appended since the last Rewrite (or Open)
	bytesSince   int64 // bytes those records occupy on disk (frames included)
	syncs        int   // fsyncs issued (dirty Syncs; no-op Syncs don't count)

	// TruncatedTail reports that Open found (and truncated away) a
	// partial record at the end of the file — the expected aftermath of
	// a crash mid-append, surfaced for operators, not an error.
	TruncatedTail bool
}

// Open opens (creating if absent) the log at path, replays every
// complete record through apply in order, truncates a partial tail
// record if the file ends mid-frame, and positions the log for
// appending. Corruption anywhere before the tail — a CRC mismatch, an
// impossible length, invalid JSON — is a hard error: the caller must
// not serve from a damaged history.
func Open(path string, apply func(Record) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{path: path, f: f}
	l.enc = json.NewEncoder(&l.pending)
	if err := l.replay(apply); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replay scans the file from the start, applying complete records and
// truncating a partial tail.
func (l *Log) replay(apply func(Record) error) error {
	info, err := l.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	rd := bufio.NewReader(l.f)
	var offset int64
	var header [frameHeader]byte
	for offset < size {
		if size-offset < frameHeader {
			return l.truncateTail(offset)
		}
		if _, err := io.ReadFull(rd, header[:]); err != nil {
			return fmt.Errorf("eventlog: %s: reading frame header at %d: %w", l.path, offset, err)
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if int64(length) > size-offset-frameHeader {
			// The frame claims more bytes than the file holds: a crash
			// mid-append (or a corrupted length on the final record —
			// indistinguishable, and equally uncommitted).
			return l.truncateTail(offset)
		}
		if length > maxRecord {
			return fmt.Errorf("eventlog: %s: corrupt record at %d: length %d exceeds limit", l.path, offset, length)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(rd, payload); err != nil {
			return fmt.Errorf("eventlog: %s: reading record at %d: %w", l.path, offset, err)
		}
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return fmt.Errorf("eventlog: %s: corrupt record at %d: CRC %08x, want %08x", l.path, offset, got, sum)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("eventlog: %s: corrupt record at %d: %v", l.path, offset, err)
		}
		if apply != nil {
			if err := apply(rec); err != nil {
				return err
			}
		}
		if l.records > 0 || rec.Type != TypeSnapshot {
			// Everything but a leading snapshot counts toward the replay
			// bound SinceRewrite reports.
			l.sinceRewrite++
			l.bytesSince += frameHeader + int64(length)
		}
		l.records++
		offset += frameHeader + int64(length)
	}
	l.size = offset
	_, err = l.f.Seek(offset, io.SeekStart)
	return err
}

// truncateTail drops the partial record at offset and leaves the file
// positioned for appending.
func (l *Log) truncateTail(offset int64) error {
	l.TruncatedTail = true
	if err := truncate(l.f, offset); err != nil {
		return err
	}
	l.size = offset
	_, err := l.f.Seek(offset, io.SeekStart)
	return err
}

// truncate cuts f to size bytes and syncs the cut.
func truncate(f *os.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// Truncate cuts the log file at path back to size bytes — a Size reading
// — and syncs the cut, dropping every record appended after that reading.
// It works on the path, not on an open Log, so it also serves after the
// Log's own file failed or was closed: a caller that rolls a failed batch
// back cuts the log to the batch's start and Opens it again.
func Truncate(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = truncate(f, size)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append frames one record into the pending buffer; it writes nothing.
// The record reaches the OS at the next Flush and stable storage at the
// next Sync — callers batch appends and flush or sync once per batch.
func (l *Log) Append(rec Record) error {
	l.rec = rec
	n, err := l.frame()
	if err != nil {
		return fmt.Errorf("eventlog: marshal %s record: %w", rec.Type, err)
	}
	l.dirty = true
	l.size += n
	l.records++
	l.sinceRewrite++
	l.bytesSince += n
	return nil
}

// frame appends l.rec's frame to the pending buffer and returns its
// length: a header placeholder, the payload as the encoder writes it
// less its trailing newline — json.Marshal's bytes — and the header
// patched in place. A record that does not encode leaves the buffer as
// it was.
func (l *Log) frame() (int64, error) {
	start := l.pending.Len()
	var header [frameHeader]byte
	l.pending.Write(header[:])
	err := l.enc.Encode(&l.rec)
	l.rec = Record{}
	if err != nil {
		l.pending.Truncate(start)
		return 0, err
	}
	l.pending.Truncate(l.pending.Len() - 1)
	buf := l.pending.Bytes()[start:]
	payload := buf[frameHeader:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return int64(len(buf)), nil
}

// Flush writes every frame appended since the last Flush to the file in
// one write, handing the records to the OS: a crash of the process no
// longer loses them, one of the machine still may until Sync. A no-op
// when nothing is pending. A failed Flush drops the pending frames and
// may leave a prefix of them in the file; a caller rolls the batch back
// with Truncate to the Size it read before the batch.
func (l *Log) Flush() error {
	if l.pending.Len() == 0 {
		return nil
	}
	_, err := l.f.Write(l.pending.Bytes())
	l.dropPending()
	if err != nil {
		return fmt.Errorf("eventlog: append to %s: %w", l.path, err)
	}
	return nil
}

// dropPending empties the pending buffer, letting go of one that a large
// frame grew past maxPending.
func (l *Log) dropPending() {
	l.pending.Reset()
	if l.pending.Cap() > maxPending {
		l.pending = bytes.Buffer{}
	}
}

// Sync flushes the pending frames and fsyncs them to stable storage —
// the group-commit point. The fsync is skipped when nothing was appended
// since the last Sync.
func (l *Log) Sync() error {
	if err := l.Flush(); err != nil {
		return err
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.syncs++
	return nil
}

// Rewrite atomically replaces the whole log with the single snapshot
// record, truncating the history it summarizes: write a temp file,
// fsync it, rename over the log, fsync the directory. It flushes the
// pending frames first, so a Rewrite that fails leaves the log holding
// every record appended before it. Replay after a Rewrite is bounded by
// the records appended since it.
func (l *Log) Rewrite(snapshot Record) error {
	if err := l.Flush(); err != nil {
		return err
	}
	l.rec = snapshot
	n, err := l.frame()
	if err != nil {
		return fmt.Errorf("eventlog: marshal snapshot: %w", err)
	}
	// The snapshot's frame goes to the temp file, never to this log.
	defer l.dropPending()
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(l.path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(l.pending.Bytes()); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpName, l.path); err != nil {
		return fail(err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	old := l.f
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	old.Close()
	l.f = f
	l.dirty = false
	l.size = n
	l.records = 1
	l.sinceRewrite = 0
	l.bytesSince = 0
	l.syncs++
	return nil
}

// Size returns the bytes of every record appended, the pending ones
// included: the file's size once they are flushed, the offset the next
// Append's frame lands at, and what Truncate cuts back to.
func (l *Log) Size() int64 { return l.size }

// Records returns the number of records in the log, pending ones
// included.
func (l *Log) Records() int { return l.records }

// SinceRewrite returns the records appended since the last Rewrite (or
// since Open when never rewritten) — the replay-length bound a caller
// watches to decide when to snapshot.
func (l *Log) SinceRewrite() int { return l.sinceRewrite }

// BytesSinceRewrite returns the on-disk bytes (frames included) those
// SinceRewrite records occupy — the compaction-pressure gauge surfaced
// in /v1/state.
func (l *Log) BytesSinceRewrite() int64 { return l.bytesSince }

// Syncs returns the number of fsyncs the log has issued (group commits
// plus rewrites); Syncs that found nothing dirty are not counted. The
// ratio of appended records to syncs measures group-commit batching.
func (l *Log) Syncs() int { return l.syncs }

// Close flushes and syncs the pending frames and closes the file.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
