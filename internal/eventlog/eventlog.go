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
// Append buffers in the OS; Sync issues the fsync. The single-writer
// serving loop appends every record of a request batch and syncs once —
// one fsync amortized over N arrivals (group commit).
package eventlog

import (
	"bufio"
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

// A Log is an open event log. It is not safe for concurrent use — the
// serving loop's single-writer rule covers it.
type Log struct {
	path  string
	f     *os.File
	dirty bool

	size         int64 // bytes of the complete frames in the file
	records      int   // frames currently in the file
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

// Append writes one record's frame. The record is durable only after
// the next Sync — callers batch appends and sync once per batch.
func (l *Log) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("eventlog: marshal %s record: %w", rec.Type, err)
	}
	if err := writeFrame(l.f, payload); err != nil {
		return fmt.Errorf("eventlog: append to %s: %w", l.path, err)
	}
	l.dirty = true
	l.size += frameHeader + int64(len(payload))
	l.records++
	l.sinceRewrite++
	l.bytesSince += frameHeader + int64(len(payload))
	return nil
}

func writeFrame(w io.Writer, payload []byte) error {
	var header [frameHeader]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Sync flushes appended records to stable storage — the group-commit
// point. A no-op when nothing was appended since the last Sync.
func (l *Log) Sync() error {
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
// fsync it, rename over the log, fsync the directory. Replay after a
// Rewrite is bounded by the records appended since it.
func (l *Log) Rewrite(snapshot Record) error {
	payload, err := json.Marshal(snapshot)
	if err != nil {
		return fmt.Errorf("eventlog: marshal snapshot: %w", err)
	}
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
	if err := writeFrame(tmp, payload); err != nil {
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
	l.size = frameHeader + int64(len(payload))
	l.records = 1
	l.sinceRewrite = 0
	l.bytesSince = 0
	l.syncs++
	return nil
}

// Size returns the bytes of the complete records in the file: the offset
// the next Append writes at, and what Truncate cuts back to.
func (l *Log) Size() int64 { return l.size }

// Records returns the number of complete records currently in the file.
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

// Close syncs and closes the file.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
