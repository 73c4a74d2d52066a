// Package wal is the durability subsystem of the framework: a
// segmented, CRC32C-framed write-ahead log for ingestion events plus a
// checkpoint writer that serializes the full tracking-form store
// (internal/core.StoreSnapshot) to a versioned binary format.
//
// The paper's representational bet — sensors keep constant-size
// aggregate state, never trajectories — is exactly what makes durable
// logging cheap here: a batch record's body is the wire's ingest
// payload (≈ 5.5 bytes an event on the harness's integral-second
// batches), and a checkpoint is O(edges) timestamp sequences, not
// O(objects) tracks.
//
// # Contract
//
//   - An event batch is durable once AppendBatch returns, to the extent
//     of the configured SyncPolicy: SyncAlways fsyncs every append,
//     SyncInterval fsyncs at most once per 100 ms (a crash can lose the
//     last interval), SyncNever leaves persistence to the OS.
//   - Recovery (Open) loads the newest valid checkpoint, replays the
//     log tail in LSN order, skips records already covered by the
//     checkpoint (never double-applies a batch), stops at the last
//     valid record when the tail is torn or truncated — detected by the
//     length+CRC32C frame — and truncates the torn bytes so appends
//     resume at a clean boundary. Truncations are reported through the
//     wal.truncations counter (internal/obs).
//   - A store rebuilt from checkpoint + replayed tail answers queries
//     bit-identically to the never-crashed store (property- and
//     torture-tested; DESIGN.md §11).
package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Observability metrics (internal/obs, DESIGN.md §9/§11).
var (
	mAppends     = obs.Default.Counter("wal.appends")
	mAppendBytes = obs.Default.Counter("wal.append_bytes")
	mFsyncs      = obs.Default.Counter("wal.fsyncs")
	mRecovered   = obs.Default.Counter("wal.recovered_records")
	mTruncations = obs.Default.Counter("wal.truncations")
	mCheckpoints = obs.Default.Counter("wal.checkpoints")
	mCkptSkipped = obs.Default.Counter("wal.checkpoints_skipped")
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) flushes every append to the OS and
	// fsyncs at most once per syncEvery — bounded data loss at
	// near-SyncNever throughput.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append: no acknowledged event is
	// ever lost, at the cost of one disk flush per append.
	SyncAlways
	// SyncNever flushes to the OS only as internal buffers fill; the OS
	// decides when bytes reach the disk. Fastest, weakest.
	SyncNever
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// syncEvery bounds the fsync interval under SyncInterval.
const syncEvery = 100 * time.Millisecond

// Options configures a log.
type Options struct {
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SegmentBytes rolls the active segment when it would exceed this
	// size (default 8 MiB).
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = fmt.Errorf("wal: log is closed")

// Log is an open write-ahead log rooted at a directory. Appends are
// serialized internally; a Log is safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	segFirst uint64 // first LSN the active segment may hold
	segSize  int64
	lsn      uint64 // last assigned LSN
	lastSync time.Time
	scratch  []byte
	enc      wire.Encoder
	closed   bool
}

// segName returns the file name of the segment whose first record is
// lsn. Fixed-width hex keeps lexicographic order equal to LSN order.
func segName(lsn uint64) string { return fmt.Sprintf("wal-%016x.seg", lsn) }

// ckptName returns the file name of the checkpoint covering lsn.
func ckptName(lsn uint64) string { return fmt.Sprintf("ckpt-%016x.stq", lsn) }

// LastLSN returns the LSN of the most recently appended record.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// AppendBatch logs one atomic event batch and returns its LSN. The
// caller has already validated the batch against the store and applies
// it only once the append succeeds; replay order equals append order.
// Empty batches are not logged.
func (l *Log) AppendBatch(events []core.Event) (uint64, error) {
	return l.AppendSeqBatch(0, events)
}

// AppendSeqBatch is AppendBatch for a batch a cluster cell applies under
// the router's apply number seq: a recSeqBatch record, from which
// recovery restores the cell's last applied number. seq 0 is an
// unnumbered batch, logged as AppendBatch logs it.
func (l *Log) AppendSeqBatch(seq uint64, events []core.Event) (uint64, error) {
	if len(events) == 0 {
		return l.LastLSN(), nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	var head []byte
	if seq == 0 {
		head = beginRecord(l.scratch[:0], recBatch, l.lsn+1)
	} else {
		head = appendU64(beginRecord(l.scratch[:0], recSeqBatch, l.lsn+1), seq)
	}
	frame, err := l.enc.AppendIngestPayload(head, events, wire.DefaultTick)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	return l.appendLocked(frame)
}

// appendLocked seals frame — the record beginRecord began for LSN
// l.lsn+1 — and writes it to the active segment, rotating first when
// the segment would overflow, then applies the sync policy. Callers
// hold l.mu.
func (l *Log) appendLocked(frame []byte) (uint64, error) {
	l.scratch = frame[:0]
	need := int64(len(frame))
	if l.segSize > 0 && l.segSize+need > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := l.w.Write(sealRecord(frame)); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.segSize += need
	mAppendBytes.Add(uint64(need))
	l.lsn++
	mAppends.Inc()
	return l.lsn, l.maybeSyncLocked()
}

// maybeSyncLocked applies the configured sync policy after an append.
func (l *Log) maybeSyncLocked() error {
	switch l.opts.Sync {
	case SyncAlways:
		return l.flushSyncLocked()
	case SyncInterval:
		if err := l.w.Flush(); err != nil {
			return err
		}
		if time.Since(l.lastSync) >= syncEvery {
			return l.fsyncLocked()
		}
	}
	return nil
}

func (l *Log) flushSyncLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.fsyncLocked()
}

func (l *Log) fsyncLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	mFsyncs.Inc()
	l.lastSync = time.Now()
	return nil
}

// Sync flushes buffered appends and forces them to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.flushSyncLocked()
}

// Close flushes, fsyncs, and closes the log. The log is unusable
// afterwards; reopen with Open.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	ferr := l.flushSyncLocked()
	cerr := l.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// rotateLocked seals the active segment and starts a fresh one whose
// first LSN is the next record's. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if err := l.flushSyncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.startSegmentLocked(l.lsn + 1)
}

// startSegmentLocked opens (creating if needed) the segment file whose
// first LSN is `first` and makes it the active append target.
func (l *Log) startSegmentLocked(first uint64) error {
	path := filepath.Join(l.dir, segName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.segFirst = first
	l.segSize = st.Size()
	syncDir(l.dir)
	return nil
}

// WriteCheckpoint durably serializes the snapshot — which the caller
// guarantees reflects every record up to LastLSN — with the serving
// epoch and the last router apply number applied (0 outside cell mode),
// then seals the
// active segment and deletes the log prefix the checkpoint covers
// (replayed segments and superseded checkpoints). The checkpoint file
// is written beside the log via write-temp, fsync, rename, so a crash
// mid-checkpoint leaves the previous recovery chain intact; a crash
// after the rename but before the prefix deletion is also safe —
// recovery skips records at or below the checkpoint LSN by sequence
// number, so nothing is ever double-applied.
func (l *Log) WriteCheckpoint(snap *core.StoreSnapshot, servingEpoch, appliedSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	ck := &Checkpoint{LSN: l.lsn, ServingEpoch: servingEpoch, AppliedSeq: appliedSeq, Snapshot: snap}
	if err := writeCheckpointFile(l.dir, ck); err != nil {
		return err
	}
	mCheckpoints.Inc()
	if err := l.rotateLocked(); err != nil {
		return err
	}
	l.gcLocked(ck.LSN)
	return nil
}

// gcLocked removes sealed segments and checkpoints fully covered by the
// checkpoint at ckptLSN. Failures are ignored: leftover files cost
// space, not correctness (recovery dedups by LSN).
func (l *Log) gcLocked(ckptLSN uint64) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		if _, ok := parseName(name, "wal-", ".seg"); ok {
			if name != segName(l.segFirst) {
				os.Remove(filepath.Join(l.dir, name))
			}
		} else if lsn, ok := parseName(name, "ckpt-", ".stq"); ok {
			if lsn < ckptLSN {
				os.Remove(filepath.Join(l.dir, name))
			}
		}
	}
}

// parseName extracts the 16-hex-digit LSN of a `<prefix><lsn><suffix>`
// file name. Returns false for foreign files (left untouched).
func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Tell reports the active segment (by its first LSN) and its size in
// bytes, including buffered appends. The crash-injection torture test
// uses it — after a Sync — to know exactly which records end before an
// injected crash offset.
func (l *Log) Tell() (segFirst uint64, size int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segFirst, l.segSize
}

// syncDir fsyncs a directory so renames and creations within it are
// durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
