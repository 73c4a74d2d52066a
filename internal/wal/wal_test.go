package wal

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/planar"
)

// testBatch builds a small deterministic batch whose content encodes i,
// so replayed records can be matched to the appends that produced them.
func testBatch(i int) []core.Event {
	base := float64(i) * 10
	return []core.Event{
		core.EnterEvent(planar.NodeID(i%7), base+1),
		core.MoveEvent(planar.EdgeID(i%11), planar.NodeID(i%5), base+2),
		core.LeaveEvent(planar.NodeID(i%7), base+3),
	}
}

// testSnapshot builds a synthetic but structurally valid snapshot; the
// wal layer serializes snapshots without interpreting them.
func testSnapshot(events int64) *core.StoreSnapshot {
	snap := &core.StoreSnapshot{Clock: float64(events) + 100}
	var rf core.RoadForms
	rf.Road = 3
	for i := int64(0); i < events; i++ {
		rf.Fwd = append(rf.Fwd, float64(i))
	}
	snap.Roads = []core.RoadForms{rf}
	snap.Events = events
	return snap
}

func mustAppend(t *testing.T, l *Log, i int) uint64 {
	t.Helper()
	lsn, err := l.AppendBatch(testBatch(i))
	if err != nil {
		t.Fatalf("AppendBatch(%d): %v", i, err)
	}
	return lsn
}

func TestLogRoundTripPerPolicy(t *testing.T) {
	for _, sync := range []SyncPolicy{SyncInterval, SyncAlways, SyncNever} {
		t.Run(sync.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, rec, err := Open(dir, Options{Sync: sync})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if rec.Checkpoint != nil || len(rec.Records) != 0 || rec.LastLSN != 0 || rec.Truncated {
				t.Fatalf("fresh dir recovered non-empty state: %+v", rec)
			}
			for i := 0; i < 10; i++ {
				if lsn := mustAppend(t, l, i); lsn != uint64(i+1) {
					t.Fatalf("append %d got LSN %d", i, lsn)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			l2, rec2, err := Open(dir, Options{Sync: sync})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			if len(rec2.Records) != 10 {
				t.Fatalf("recovered %d records, want 10", len(rec2.Records))
			}
			for i := 0; i < 10; i++ {
				r := rec2.Records[i]
				if r.LSN != uint64(i+1) || !reflect.DeepEqual(r.Events, testBatch(i)) {
					t.Fatalf("record %d mismatch: %+v", i, r)
				}
			}
			if rec2.LastLSN != 10 {
				t.Fatalf("LastLSN %d, want 10", rec2.LastLSN)
			}
			// Appends resume above the recovered LSN.
			if lsn := mustAppend(t, l2, 99); lsn != 11 {
				t.Fatalf("post-recovery append got LSN %d, want 11", lsn)
			}
		})
	}
}

func TestLogSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		mustAppend(t, l, i)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(rec.Records), n)
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

func TestCheckpointTruncatesReplayedSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 40; i++ {
		mustAppend(t, l, i)
	}
	if err := l.WriteCheckpoint(testSnapshot(4), 7, 0); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	// Everything the checkpoint covers is gone: one (empty) active
	// segment and one checkpoint file remain.
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment after checkpoint, got %d", len(segs))
	}
	mustAppend(t, l, 100)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec.Checkpoint == nil {
		t.Fatalf("no checkpoint recovered")
	}
	if rec.Checkpoint.LSN != 40 || rec.Checkpoint.ServingEpoch != 7 {
		t.Fatalf("checkpoint LSN/epoch = %d/%d, want 40/7", rec.Checkpoint.LSN, rec.Checkpoint.ServingEpoch)
	}
	if got, want := rec.Checkpoint.Snapshot.Events, int64(4); got != want {
		t.Fatalf("snapshot events %d, want %d", got, want)
	}
	if len(rec.Records) != 1 || rec.Records[0].LSN != 41 {
		t.Fatalf("want exactly the post-checkpoint record, got %+v", rec.Records)
	}
}

func TestRecoverySkipsRecordsCoveredByCheckpoint(t *testing.T) {
	// Simulate a crash after the checkpoint rename but before segment
	// GC: the full log survives alongside the checkpoint, and recovery
	// must not replay (double-apply) the covered prefix.
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, l, i)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := writeCheckpointFile(dir, &Checkpoint{LSN: 6, ServingEpoch: 1, Snapshot: testSnapshot(2)}); err != nil {
		t.Fatalf("writeCheckpointFile: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec.Checkpoint == nil || rec.Checkpoint.LSN != 6 {
		t.Fatalf("checkpoint not recovered: %+v", rec.Checkpoint)
	}
	if len(rec.Records) != 4 {
		t.Fatalf("recovered %d records, want 4 (LSNs 7..10)", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(7+i) {
			t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, 7+i)
		}
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, l, i)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segName(segs[0]))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	// Cut into the middle of the last record.
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	truncBefore := obs.Default.Counter("wal.truncations").Value()
	obs.Enable()
	defer obs.Disable()
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !rec.Truncated {
		t.Fatalf("torn tail not reported")
	}
	if len(rec.Records) != 4 || rec.LastLSN != 4 {
		t.Fatalf("recovered %d records last LSN %d, want 4/4", len(rec.Records), rec.LastLSN)
	}
	if got := obs.Default.Counter("wal.truncations").Value(); got != truncBefore+1 {
		t.Fatalf("wal.truncations = %d, want %d", got, truncBefore+1)
	}
	// The torn bytes are gone and appends resume at a clean boundary.
	if lsn := mustAppend(t, l2, 50); lsn != 5 {
		t.Fatalf("append after truncation got LSN %d, want 5", lsn)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if len(rec2.Records) != 5 || rec2.Truncated {
		t.Fatalf("after clean append: %d records truncated=%v", len(rec2.Records), rec2.Truncated)
	}
	if !reflect.DeepEqual(rec2.Records[4].Events, testBatch(50)) {
		t.Fatalf("post-truncation append not recovered")
	}
}

func TestRecoveryStopsAtCorruptMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var ends []int64
	for i := 0; i < 6; i++ {
		mustAppend(t, l, i)
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		_, size := l.Tell()
		ends = append(ends, size)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segName(segs[0]))
	// Flip one payload byte inside record 4 (LSN 4).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[ends[2]+frameHeaderSize+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !rec.Truncated {
		t.Fatalf("corruption not reported as truncation")
	}
	if len(rec.Records) != 3 || rec.LastLSN != 3 {
		t.Fatalf("recovered %d records last LSN %d, want 3/3 (stop before corrupt record)", len(rec.Records), rec.LastLSN)
	}
}

func TestRecoverySkipsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := writeCheckpointFile(dir, &Checkpoint{LSN: 3, ServingEpoch: 1, Snapshot: testSnapshot(2)}); err != nil {
		t.Fatalf("writeCheckpointFile: %v", err)
	}
	if err := writeCheckpointFile(dir, &Checkpoint{LSN: 9, ServingEpoch: 2, Snapshot: testSnapshot(5)}); err != nil {
		t.Fatalf("writeCheckpointFile: %v", err)
	}
	// Corrupt the newer checkpoint; recovery must fall back to the older.
	path := filepath.Join(dir, ckptName(9))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.LSN != 3 {
		t.Fatalf("want fallback to checkpoint LSN 3, got %+v", rec.Checkpoint)
	}
}

// TestRecoveryRejectsFutureCheckpointVersion: a checkpoint of a version
// this build does not read — written by a newer build, or the retired
// versions 1 and 2 — stops recovery with an error that names its
// version and the range this build reads; it is never skipped like a
// corrupt file.
func TestRecoveryRejectsFutureCheckpointVersion(t *testing.T) {
	for _, tc := range []struct {
		version byte
		want    string
	}{
		{6, "version 6 is newer than this build supports (3–5)"},
		{0xee, "version 238 is newer than this build supports (3–5)"},
		{1, "version 1 is older than this build supports (3–5)"},
		{2, "version 2 is older than this build supports (3–5)"},
	} {
		dir := t.TempDir()
		ck := &Checkpoint{LSN: 1, ServingEpoch: 1, Snapshot: testSnapshot(1)}
		data := encodeCheckpoint(ck)
		// Patch the version field (right after the magic) and re-seal the
		// CRC so the file reads as valid-but-unsupported, not corrupt.
		data[len(ckptMagic)] = tc.version
		body := data[:len(data)-4]
		reseal := appendU32(append([]byte(nil), body...), crcOf(body))
		if err := os.WriteFile(filepath.Join(dir, ckptName(1)), reseal, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		_, _, err := Open(dir, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Open over a version-%d checkpoint: err = %v, want one containing %q", tc.version, err, tc.want)
		}
	}
}

func TestCheckpointRoundTripPreservesSnapshot(t *testing.T) {
	snap := testSnapshot(9)
	// World edges travel in the one section, by tracked-edge id, behind
	// the roads: enters forward, leaves in reverse.
	snap.Roads = append(snap.Roads,
		core.RoadForms{Road: 1002, Fwd: []float64{1, 2}, Rev: []float64{3}},
		core.RoadForms{Road: 1005, Rev: []float64{4}},
	)
	snap.Events += 4
	ck := &Checkpoint{LSN: 123, ServingEpoch: 45, Snapshot: snap}
	got, err := decodeCheckpoint(encodeCheckpoint(ck))
	if err != nil {
		t.Fatalf("decodeCheckpoint: %v", err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("checkpoint round trip mismatch:\n got %+v\nwant %+v", got, ck)
	}
}

func TestAppendCounters(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	appends := obs.Default.Counter("wal.appends").Value()
	fsyncs := obs.Default.Counter("wal.fsyncs").Value()
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, l, i)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := obs.Default.Counter("wal.appends").Value() - appends; got != 3 {
		t.Fatalf("wal.appends grew by %d, want 3", got)
	}
	if got := obs.Default.Counter("wal.fsyncs").Value() - fsyncs; got < 3 {
		t.Fatalf("wal.fsyncs grew by %d, want >= 3 under SyncAlways", got)
	}

	recovered := obs.Default.Counter("wal.recovered_records").Value()
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := obs.Default.Counter("wal.recovered_records").Value() - recovered; got != uint64(len(rec.Records)) {
		t.Fatalf("wal.recovered_records grew by %d, want %d", got, len(rec.Records))
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.AppendBatch(testBatch(0)); err != ErrClosed {
		t.Fatalf("AppendBatch on closed log: %v", err)
	}
	if err := l.WriteCheckpoint(testSnapshot(1), 1, 0); err != ErrClosed {
		t.Fatalf("WriteCheckpoint on closed log: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func crcOf(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}
