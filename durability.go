package stq

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
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
	// (NewPartitionedSystem): each partition keeps its own log and
	// checkpoints under Dir/part-NNN, appends touch only the logs of
	// the partitions a batch routed to, and recovery replays every
	// partition independently (in parallel). The partition count is
	// recorded in Dir and must match on reopen — routing is a pure
	// function of (world, count), so a different count would replay
	// events into the wrong stores.
	Partitions int
}

// partitionMetaName is the file recording the layout parameters of a
// partitioned durable directory.
const partitionMetaName = "partitions.json"

type partitionMeta struct {
	Partitions int `json:"partitions"`
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
// With cfg.Partitions > 1 the system is partitioned (DESIGN.md §14):
// one log directory per partition, recovered in parallel.
func OpenDurable(w *roadnet.World, cfg Durability) (*System, error) {
	if cfg.Partitions > 1 {
		if err := pinPartitionCount(cfg); err != nil {
			return nil, err
		}
	}
	sys, err := NewPartitionedSystem(w, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	// Open and replay every member in parallel: the logs are independent
	// and each replays into its own store.
	n := len(sys.members)
	logs := make([]*wal.Log, n)
	recs := make([]*wal.Recovered, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := range sys.members {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			dir := cfg.Dir
			if n > 1 {
				dir = filepath.Join(cfg.Dir, fmt.Sprintf("part-%03d", p))
			}
			logs[p], recs[p], errs[p] = wal.Open(dir, wal.Options{Sync: cfg.Sync})
			if errs[p] == nil {
				errs[p] = replay(sys.members[p], recs[p])
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			for _, l := range logs {
				if l != nil {
					l.Close()
				}
			}
			if n > 1 {
				err = fmt.Errorf("partition %d: %w", p, err)
			}
			return nil, err
		}
	}
	// The ordering contract and the serving epoch are written identically
	// to every member (checkpoint snapshots carry the system-level
	// ordering; SetIngestOrdering appends an ordering record to every
	// log), so each member's recovered view — checkpointed ordering
	// advanced by its own logged ordering records — agrees except across
	// a crash window mid-broadcast. OrderGlobal (the stricter contract)
	// wins such a tie: every applied batch satisfied whichever contract
	// was live when it was applied, so the stricter survivor is always a
	// sound description of the recovered history.
	finalOrdering := core.OrderPerEdge
	var maxEpoch uint64
	for _, rec := range recs {
		ord := core.OrderGlobal
		if ck := rec.Checkpoint; ck != nil {
			ord = ck.Snapshot.Ordering
			if ck.ServingEpoch > maxEpoch {
				maxEpoch = ck.ServingEpoch
			}
		}
		for _, r := range rec.Records {
			if r.IsOrdering {
				ord = r.Ordering
			}
		}
		if ord == core.OrderGlobal {
			finalOrdering = core.OrderGlobal
		}
	}
	sys.st.SetOrdering(finalOrdering)
	// Publish a fresh engine: ServingEpoch moves strictly past the
	// checkpointed epoch and the new engine starts with an empty query-
	// plan cache, so stale pre-crash plans can never be served.
	sys.mu.Lock()
	if e := sys.epoch.Load(); maxEpoch > e {
		sys.epoch.Store(maxEpoch)
	}
	sys.rebuild()
	sys.mu.Unlock()
	sys.logs = logs
	return sys, nil
}

// pinPartitionCount records the partition count of a partitioned
// durable directory in its meta file, or checks it against the count
// recorded there.
func pinPartitionCount(cfg Durability) error {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("stq: creating durable dir: %w", err)
	}
	metaPath := filepath.Join(cfg.Dir, partitionMetaName)
	b, err := os.ReadFile(metaPath)
	if os.IsNotExist(err) {
		b, _ := json.Marshal(partitionMeta{Partitions: cfg.Partitions})
		if err := os.WriteFile(metaPath, b, 0o644); err != nil {
			return fmt.Errorf("stq: writing %s: %w", partitionMetaName, err)
		}
		return nil
	}
	if err != nil {
		return err
	}
	var meta partitionMeta
	if err := json.Unmarshal(b, &meta); err != nil {
		return fmt.Errorf("stq: corrupt %s: %w", partitionMetaName, err)
	}
	if meta.Partitions != cfg.Partitions {
		return fmt.Errorf("stq: durable dir %s was recorded with %d partitions, reopened with %d — partition routing would change; reopen with the recorded count",
			cfg.Dir, meta.Partitions, cfg.Partitions)
	}
	return nil
}

// replay installs one member's recovered durable state: the checkpoint
// snapshot, then the log tail in LSN order. Replay always runs under
// OrderPerEdge: the log records batches in apply order, and any
// successfully applied sequence is per-form monotone in that order,
// even if part of it was ingested under the (stricter) global mode.
// OpenDurable sets the recovered ordering contract afterwards.
func replay(store *core.Store, rec *wal.Recovered) error {
	if ck := rec.Checkpoint; ck != nil {
		if err := store.RestoreSnapshot(ck.Snapshot); err != nil {
			return fmt.Errorf("stq: restoring checkpoint: %w", err)
		}
	}
	store.SetOrdering(core.OrderPerEdge)
	for _, r := range rec.Records {
		if r.IsOrdering {
			continue
		}
		if err := store.RecordBatch(r.Events); err != nil {
			return fmt.Errorf("stq: replaying log record %d: %w", r.LSN, err)
		}
	}
	return nil
}

// Durable reports whether the system was opened with OpenDurable.
func (s *System) Durable() bool { return s.logs != nil }

// NumEvents returns the number of events currently in the store
// (recovered plus newly ingested).
func (s *System) NumEvents() int { return s.st.NumEvents() }

// ErrNotDurable reports a batch that was applied in memory but could
// not be appended to the write-ahead log (match with errors.Is): it is
// live and answerable, will not survive a crash, and must not be sent
// again. The serving layer maps it to HTTP 500.
var ErrNotDurable = errors.New("stq: batch applied in memory but not logged")

// recordDurable applies one atomic batch and logs it. The dmu critical
// section covers both, so log order always equals apply order — the
// invariant recovery's replay depends on. Apply runs first because it
// performs all validation; if the subsequent append fails the batch is
// live in memory but not durable, and the error (ErrNotDurable) says so.
//
// Each member's share of the batch is appended to that member's log, so
// a log replays exactly the events its store applied.
func (s *System) recordDurable(events []Event) error {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	subs, err := s.split(events)
	if err != nil {
		return err
	}
	sysEvents.AddInt(len(events))
	for p, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		if _, err := s.logs[p].AppendBatch(sub); err != nil {
			return fmt.Errorf("%w (partition %d): %w", ErrNotDurable, p, err)
		}
	}
	s.maybeSeal(len(events))
	return nil
}

// Checkpoint serializes the full store state beside the log and
// truncates the log prefix the checkpoint covers. The snapshot is taken
// with ingestion paused (the dmu critical section), so it corresponds
// exactly to the log position it is stamped with. After a successful
// checkpoint, recovery replays only records appended afterwards.
//
// Every member is checkpointed (in parallel): each member's snapshot
// pairs with its own log position.
func (s *System) Checkpoint() error {
	if !s.Durable() {
		return fmt.Errorf("stq: Checkpoint requires a durable system (OpenDurable)")
	}
	s.dmu.Lock()
	defer s.dmu.Unlock()
	ord := s.st.GetOrdering()
	epoch := s.epoch.Load()
	errs := make([]error, len(s.members))
	var wg sync.WaitGroup
	for p := range s.members {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			snap := s.members[p].ExportSnapshot()
			// A partitioned set's member stores run OrderPerEdge
			// internally; the checkpoint records the system-level
			// contract instead, which is what recovery must restore.
			snap.Ordering = ord
			errs[p] = s.logs[p].WriteCheckpoint(snap, epoch)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return fmt.Errorf("stq: checkpointing partition %d: %w", p, err)
		}
	}
	return nil
}

// SyncWAL forces every acknowledged append to stable storage,
// regardless of the configured fsync policy. No-op on non-durable
// systems.
func (s *System) SyncWAL() error {
	for _, l := range s.logs {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the write-ahead log(s) and, on cluster
// systems, releases the router store (health loop, connections). The
// system keeps serving queries, but further ingestion fails. No-op on
// non-durable single-process systems.
func (s *System) Close() error {
	var firstErr error
	if c, ok := s.st.(io.Closer); ok {
		firstErr = c.Close()
	}
	s.dmu.Lock()
	defer s.dmu.Unlock()
	for _, l := range s.logs {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
