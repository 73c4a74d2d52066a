package stq

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/roadnet"
	"repro/internal/wal"
)

// SyncPolicy selects when durable appends reach stable storage
// (internal/wal, DESIGN.md §11).
type SyncPolicy = wal.SyncPolicy

// Fsync policies for Durability.Sync.
const (
	// SyncInterval (the default) fsyncs at most once per 100 ms.
	SyncInterval = wal.SyncInterval
	// SyncAlways fsyncs after every append.
	SyncAlways = wal.SyncAlways
	// SyncNever leaves persistence timing to the OS.
	SyncNever = wal.SyncNever
)

// Durability configures the opt-in durability subsystem: a segmented,
// CRC32C-framed write-ahead log plus versioned checkpoints, rooted at
// Dir. See OpenDurable.
type Durability struct {
	// Dir is the directory holding the log segments and checkpoints.
	// It is created if missing.
	Dir string
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// Partitions > 1 opens a spatially partitioned durable system
	// (NewPartitionedSystem). The directory does not depend on it: the
	// one log holds whole batches and a checkpoint is the union of the
	// partitions' snapshots, so a directory written at one count reopens
	// at any other.
	Partitions int
}

// OpenDurable wraps a world in a durable System: every ingested batch
// is appended to the write-ahead log in cfg.Dir, and previously logged
// state is recovered first. Recovery loads the newest valid checkpoint,
// replays the surviving log tail — tolerating a torn or truncated final
// record — and produces a store whose query answers are bit-identical
// to the pre-crash system over the recovered event prefix.
//
// The world must be the same world the directory's history was recorded
// against: checkpoints and log records reference roads and gateways by
// ID. Restoring against a world with fewer roads fails validation;
// matching worlds is the caller's contract (persist the world alongside,
// e.g. with worldio).
//
// Restore publishes a fresh serving engine and advances ServingEpoch
// strictly past the checkpointed epoch, so no query plan cached before
// the crash — or compiled by a previous incarnation — can be served
// against the recovered store.
//
// With cfg.Partitions > 1 the system is partitioned (DESIGN.md §14.4):
// the checkpoint is restored by routing each edge to its owner under
// the layout computed now, and every logged batch is replayed through
// the partitioned store as it was ingested. A directory an older build
// wrote with one log per partition is refused by name and left as it
// is.
func OpenDurable(w *roadnet.World, cfg Durability) (*System, error) {
	if err := refusePerPartitionLayout(cfg.Dir); err != nil {
		return nil, err
	}
	sys, err := NewPartitionedSystem(w, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	log, rec, err := wal.Open(cfg.Dir, wal.Options{Sync: cfg.Sync})
	if err != nil {
		return nil, err
	}
	if err := sys.replay(rec); err != nil {
		log.Close()
		return nil, err
	}
	sys.log = log
	return sys, nil
}

// refusePerPartitionLayout fails on a directory holding partitions.json
// or a part-NNN entry: older builds kept one log per partition there,
// and wal.Open, which reads only the directory's top level, would
// otherwise open it as empty.
func refusePerPartitionLayout(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("stq: reading durable dir: %w", err)
	}
	for _, ent := range entries {
		if name := ent.Name(); name == "partitions.json" || strings.HasPrefix(name, "part-") {
			return fmt.Errorf("stq: durable dir %s holds %s: an older build kept one log per partition there (partitions.json, part-NNN); this build keeps one log per system and does not read that layout", dir, name)
		}
	}
	return nil
}

// replay installs the durable state wal.Open found, through the same
// doors ingestion uses: the checkpoint through the store's
// RestoreSnapshot, then the logged batches in LSN order through its
// RecordBatch. The log records batches in apply order, and any
// successfully applied sequence is per-form monotone in that order, so
// consecutive records are applied together, replayChunk events or more
// at a time: they leave the store that applying them one by one would,
// at a fraction of the per-batch cost. The ordering records older builds
// logged carry no events and change nothing.
func (s *System) replay(rec *wal.Recovered) error {
	const replayChunk = 1 << 16
	var epoch uint64
	if ck := rec.Checkpoint; ck != nil {
		if err := s.st.RestoreSnapshot(ck.Snapshot); err != nil {
			return fmt.Errorf("stq: restoring checkpoint: %w", err)
		}
		epoch = ck.ServingEpoch
	}
	var chunk []Event
	for i, r := range rec.Records {
		chunk = append(chunk, r.Events...)
		if len(chunk) >= replayChunk || i == len(rec.Records)-1 {
			if err := s.st.RecordBatch(chunk); err != nil {
				return fmt.Errorf("stq: replaying the log up to record %d: %w", r.LSN, err)
			}
			chunk = chunk[:0]
		}
	}
	s.appliedSeq = rec.AppliedSeq
	// Publish a fresh engine: ServingEpoch moves strictly past the
	// checkpointed epoch and the new engine starts with an empty query-
	// plan cache, so stale pre-crash plans can never be served.
	s.mu.Lock()
	if epoch > s.epoch.Load() {
		s.epoch.Store(epoch)
	}
	s.rebuild()
	s.mu.Unlock()
	return nil
}

// Durable reports whether the system was opened with OpenDurable.
func (s *System) Durable() bool { return s.log != nil }

// NumEvents returns the number of events currently in the store
// (recovered plus newly ingested).
func (s *System) NumEvents() int { return s.st.NumEvents() }

// ErrNotDurable reports a batch the write-ahead log could not take
// (match with errors.Is). The batch was validated, then the append
// failed, so nothing was applied: the store is as it was, and the batch
// may be sent again once the log takes appends. The serving layer maps
// it to HTTP 500.
var ErrNotDurable = errors.New("stq: batch not logged, so not applied")

// errClosed refuses ingestion into a durable system after Close, before
// anything is applied. The serving layer maps it to HTTP 503.
var errClosed = errors.New("stq: durable system is closed: nothing applied")

// recordLocked applies one atomic batch — on a durable system after
// logging it, whole, as one record — and, for seq > 0, makes seq the
// last router apply number applied. Callers hold dmu, the section that
// keeps log order equal to apply order, the invariant recovery's replay
// depends on. A durable batch is logged once it is validated and applied
// only once its append succeeded, so a failed append applies nothing.
func (s *System) recordLocked(seq uint64, events []Event) error {
	var err error
	if s.log == nil {
		err = s.st.RecordBatch(events)
	} else if s.closed {
		err = errClosed
	} else {
		err = s.st.RecordBatchGated(events, func() error {
			if _, err := s.log.AppendSeqBatch(seq, events); err != nil {
				return fmt.Errorf("%w: %w", ErrNotDurable, err)
			}
			return nil
		})
	}
	if err != nil {
		return err
	}
	if seq != 0 {
		s.appliedSeq = seq
	}
	sysEvents.AddInt(len(events))
	s.maybeSeal(len(events))
	return nil
}

// Checkpoint serializes the full store state beside the log and
// truncates the log prefix the checkpoint covers. The snapshot is taken
// with ingestion paused (the dmu critical section), so it corresponds
// exactly to the log position it is stamped with. After a successful
// checkpoint, recovery replays only records appended afterwards. A
// partitioned system's checkpoint is the union of its members'
// snapshots: one store's snapshot, in the one format.
func (s *System) Checkpoint() error {
	if !s.Durable() {
		return fmt.Errorf("stq: Checkpoint requires a durable system (OpenDurable)")
	}
	s.dmu.Lock()
	defer s.dmu.Unlock()
	snap, err := s.snapshot()
	if err != nil {
		return err
	}
	return s.log.WriteCheckpoint(snap, s.epoch.Load(), s.appliedSeq)
}

// snapshot exports the whole store as one store's snapshot: the plain
// store's own, or the union of a partitioned set's members.
func (s *System) snapshot() (*core.StoreSnapshot, error) {
	if s.store != nil {
		return s.store.ExportSnapshot(), nil
	}
	return s.st.(*partition.Set).ExportSnapshot()
}

// SyncWAL forces every acknowledged append to stable storage,
// regardless of the configured fsync policy. No-op on non-durable
// systems.
func (s *System) SyncWAL() error {
	if s.log == nil {
		return nil
	}
	return s.log.Sync()
}

// Close flushes and closes the write-ahead log and, on cluster systems,
// releases the router store (health loop, connections). The system
// keeps serving queries, but further ingestion fails before it applies
// anything. No-op on non-durable single-process systems.
func (s *System) Close() error {
	var firstErr error
	if c, ok := s.st.(io.Closer); ok {
		firstErr = c.Close()
	}
	s.dmu.Lock()
	defer s.dmu.Unlock()
	s.closed = true
	if s.log != nil {
		if err := s.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
