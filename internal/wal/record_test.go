package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// Payloads of wire.MarshalIngest(batch, wire.DefaultTick) for the two
// batches below, recorded from the build before batch records carried
// them: the wire format they pin is the one the log stores.
const (
	onGridPayload  = "0401000000000000f03f00c8010301020e0201040304020e03"
	offGridPayload = "0300000000000000105940030100000000004059400e02020000000000a05b4003"
)

var (
	onGridBatch = []core.Event{
		core.EnterEvent(3, 100), core.MoveEvent(7, 2, 101), core.MoveEvent(5, 4, 103), core.LeaveEvent(3, 110),
	}
	offGridBatch = []core.Event{
		core.EnterEvent(3, 100.25), core.MoveEvent(7, 2, 101), core.LeaveEvent(3, 110.5),
	}
)

// olderBuildSegment is a segment an older build wrote, whose batches are
// fixed-width records of type 1: LSN 1 the batch {Move(0, 0, 1),
// Enter(2, 2)}, LSN 2 an ordering change, LSN 3 the batch {Leave(2, 3.5)}.
const olderBuildSegment = "2b00000000c6ae6e0101000000000000000200000001000000000000f03f0000000000000000000000000000000040020000000a000000b228676f020200000000000000011a000000eccbe0eb01030000000000000001000000020000000000000c4002000000"

// The directory a build with two ingest contracts left behind (world:
// 6×6 grid, spacing 80, jitter 0.1, seed 3; gateway 1): the checkpoint,
// at LSN 1 and serving epoch 2, holds the batch {Move(0, 0, 10),
// Enter(1, 11), Move(1, 6, 12)} with ordering byte 0 (one global
// order). The segment holds LSN 2 an ordering change to per-edge (1), LSN 3
// the batch {Move(2, 1, 5), Move(0, 0, 20), Leave(1, 7)}, LSN 4 an
// ordering change back to global (0), LSN 5 the batch {Move(1, 6, 25),
// Leave(1, 30)}.
const (
	olderOrderingCheckpoint = "535451434b50543103000000010000000000000002000000000000000000000000000028400300000000000000030000000000000000010000000000000000002440000000000100000000000000000100000000000000000028403d00000000010000000000000000002640000000006848efec"
	olderOrderingSegment    = "0a000000b228676f020200000000000000011e0000007e74a0f90303000000000000000301000000000000f03f010a0401011e03000219010a000000e3b352ae020400000000000000001a00000010a5a0e10305000000000000000201000000000000f03f01320206020a01"
)

// segmentBodies returns the bodies of the records in a segment, behind
// each record's type and LSN.
func segmentBodies(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for len(data) > 0 {
		n := int(data[0]) | int(data[1])<<8 | int(data[2])<<16 | int(data[3])<<24
		bodies = append(bodies, data[frameHeaderSize+recHeaderSize:frameHeaderSize+n])
		data = data[frameHeaderSize+n:]
	}
	return bodies
}

// TestBatchBodyIsWireIngestPayload: a batch record's body is, byte for
// byte, the payload of the wire's ingest frame for the same batch — as
// that frame was spelled before the log carried it, and as it is now.
func TestBatchBodyIsWireIngestPayload(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]core.Event{onGridBatch, offGridBatch} {
		if _, err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	bodies := segmentBodies(t, filepath.Join(dir, segName(1)))
	for i, tc := range []struct {
		batch   []core.Event
		payload string
	}{{onGridBatch, onGridPayload}, {offGridBatch, offGridPayload}} {
		if got := hex.EncodeToString(bodies[i]); got != tc.payload {
			t.Errorf("batch %d: record body %s, want the recorded ingest payload %s", i, got, tc.payload)
		}
		if frame := wire.MarshalIngest(tc.batch, wire.DefaultTick); !bytes.Equal(frame[wire.HeaderSize:], bodies[i]) {
			t.Errorf("batch %d: record body differs from today's ingest frame payload", i)
		}
	}
}

// TestAppendBatchRefusesUnknownKind: an event the payload cannot spell
// is refused at append, never written as a record recovery would cut off.
func TestAppendBatchRefusesUnknownKind(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendBatch([]core.Event{{T: 1, Kind: 7}}); err == nil || !strings.Contains(err.Error(), "unknown kind 7") {
		t.Fatalf("AppendBatch of an unknown kind: err = %v", err)
	}
	if _, size := l.Tell(); size != 0 || l.LastLSN() != 0 {
		t.Fatalf("refused batch wrote %d bytes, LSN %d", size, l.LastLSN())
	}
}

// TestRecoveryBitIdenticalInBothTimestampModes: a batch on the tick grid
// travels quantized and one off it raw, and both replay bit for bit —
// the raw one with -0, subnormals and magnitudes past the quantizer's
// 2⁶² guard among its timestamps.
func TestRecoveryBitIdenticalInBothTimestampModes(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	batches := []struct {
		mode   byte
		events []core.Event
	}{
		{1, []core.Event{
			core.MoveEvent(0, 1, -3), core.EnterEvent(4, 0), core.MoveEvent(1<<20, 9, 1<<40),
			core.LeaveEvent(4, 1<<52), core.MoveEvent(3, 1<<30, 1<<52+2),
		}},
		{0, []core.Event{
			core.EnterEvent(2, math.Copysign(0, -1)), core.MoveEvent(5, 6, sub), core.MoveEvent(5, 6, 3*sub),
			core.LeaveEvent(2, math.MaxFloat64/3), core.MoveEvent(8, 7, 0x1p62), core.EnterEvent(1, 0x1p70),
			core.MoveEvent(0, 0, -0x1p63), core.LeaveEvent(1, 0.1),
		}},
		// One -0 among integral seconds: -0 == +0, but it keeps the raw
		// mode, or it would come back as +0.
		{0, []core.Event{core.MoveEvent(0, 1, math.Copysign(0, -1)), core.MoveEvent(0, 1, 1)}},
	}
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := l.AppendBatch(b.events); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, body := range segmentBodies(t, filepath.Join(dir, segName(1))) {
		// count uvarint (one byte here), then the timestamp-mode byte.
		if body[1] != batches[i].mode {
			t.Errorf("batch %d: timestamp mode %d, want %d", i, body[1], batches[i].mode)
		}
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != len(batches) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(batches))
	}
	for i, r := range rec.Records {
		want := batches[i].events
		if len(r.Events) != len(want) {
			t.Fatalf("batch %d: %d events, want %d", i, len(r.Events), len(want))
		}
		for j, ev := range r.Events {
			w := want[j]
			if math.Float64bits(ev.T) != math.Float64bits(w.T) || ev.Kind != w.Kind || ev.Road != w.Road || ev.From != w.From || ev.Gateway != w.Gateway {
				t.Errorf("batch %d event %d: recovered %+v (T bits %#x), want %+v (T bits %#x)",
					i, j, ev, math.Float64bits(ev.T), w, math.Float64bits(w.T))
			}
		}
	}
}

// TestOpenOverOlderBuildBatches: batch records an older build wrote are
// dropped unread when a checkpoint covers them (a crash between that
// build's checkpoint and its prefix GC leaves them behind), and refused
// by name — nothing truncated, nothing removed — when it does not.
func TestOpenOverOlderBuildBatches(t *testing.T) {
	seg, err := hex.DecodeString(olderBuildSegment)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ckptLSN uint64
		refusal string // "" when Open must succeed
	}{
		{0, "wal-0000000000000001.seg: record 1 is a batch written by an older build: checkpoint with that build first"},
		{2, "wal-0000000000000001.seg: record 3 is a batch written by an older build: checkpoint with that build first"},
		{3, ""},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if tc.ckptLSN > 0 {
			if err := writeCheckpointFile(dir, &Checkpoint{LSN: tc.ckptLSN, ServingEpoch: 1, Snapshot: testSnapshot(1)}); err != nil {
				t.Fatal(err)
			}
		}
		l, rec, err := Open(dir, Options{})
		if tc.refusal != "" {
			if err == nil || !strings.Contains(err.Error(), tc.refusal) {
				t.Fatalf("checkpoint at %d: Open err = %v, want one containing %q", tc.ckptLSN, err, tc.refusal)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, seg) {
				t.Fatalf("checkpoint at %d: refused segment was modified", tc.ckptLSN)
			}
			segs, _ := listSegments(dir)
			if len(segs) != 1 {
				t.Fatalf("checkpoint at %d: refusal left %d segments, want the one", tc.ckptLSN, len(segs))
			}
			continue
		}
		if err != nil {
			t.Fatalf("checkpoint at %d: Open: %v", tc.ckptLSN, err)
		}
		if len(rec.Records) != 0 || rec.Truncated || rec.LastLSN != 3 {
			t.Fatalf("covered older batches: %d records, truncated %v, LastLSN %d", len(rec.Records), rec.Truncated, rec.LastLSN)
		}
		if lsn, err := l.AppendBatch(onGridBatch); err != nil || lsn != 4 {
			t.Fatalf("append after covered older batches: LSN %d, %v", lsn, err)
		}
		l.Close()
		if _, rec, err = Open(dir, Options{}); err != nil || len(rec.Records) != 1 || rec.Records[0].LSN != 4 {
			t.Fatalf("reopen over a mixed segment: %v, %+v", err, rec)
		}
	}
}

// TestRecoveredApplyNumber: what an older build wrote — a version-3
// checkpoint and type-3 batch records — carries no apply number and
// recovers as 0. Every checkpoint is written as version 5, with or
// without a number, and decodes back to its number. Recovery restores the larger of the checkpoint's number
// and the last numbered record's.
func TestRecoveredApplyNumber(t *testing.T) {
	ckpt, _ := hex.DecodeString(olderOrderingCheckpoint)
	seg, _ := hex.DecodeString(olderOrderingSegment)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ckptName(1)), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if rec.AppliedSeq != 0 || rec.Checkpoint.AppliedSeq != 0 || len(rec.Records) != 4 {
		t.Fatalf("older build's files: apply number %d (checkpoint %d), %d records", rec.AppliedSeq, rec.Checkpoint.AppliedSeq, len(rec.Records))
	}

	for seq, version := range map[uint64]uint32{0: 5, 7: 5} {
		img := encodeCheckpoint(&Checkpoint{LSN: 1, ServingEpoch: 1, AppliedSeq: seq, Snapshot: testSnapshot(1)})
		ck, err := decodeCheckpoint(img)
		if got := binary.LittleEndian.Uint32(img[len(ckptMagic):]); got != version || err != nil || ck.AppliedSeq != seq {
			t.Errorf("apply number %d: written as version %d (want %d), decoded %v, %v", seq, got, version, ck, err)
		}
	}

	dir = t.TempDir()
	if l, _, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	mustSeq := func(seq uint64, events []core.Event) {
		t.Helper()
		if _, err := l.AppendSeqBatch(seq, events); err != nil {
			t.Fatal(err)
		}
	}
	mustSeq(4, testBatch(0))
	if err := l.WriteCheckpoint(testSnapshot(1), 1, 4); err != nil {
		t.Fatal(err)
	}
	mustSeq(9, testBatch(1))
	mustSeq(0, testBatch(2))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, rec, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if rec.Checkpoint.AppliedSeq != 4 || rec.AppliedSeq != 9 || len(rec.Records) != 2 || rec.Records[0].Seq != 9 || rec.Records[1].Seq != 0 {
		t.Fatalf("recovered apply number %d over checkpoint %d, records %+v", rec.AppliedSeq, rec.Checkpoint.AppliedSeq, rec.Records)
	}
}

// TestOpenOverOlderBuildOrdering: the ordering records and the
// checkpoint's ordering byte an older build wrote are read and dropped.
// Each ordering record comes back as a record without events, so the
// LSNs stay continuous; the checkpoint decodes whatever its ordering
// byte holds, and written again — as version 5, with an apply number of
// 0 — it differs from the older version-3 one in the version, that
// number, the ordering byte, now 1, and the CRC alone.
func TestOpenOverOlderBuildOrdering(t *testing.T) {
	ckpt, err := hex.DecodeString(olderOrderingCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := hex.DecodeString(olderOrderingSegment)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ckptName(1)), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.LSN != 1 || rec.Checkpoint.ServingEpoch != 2 || rec.Truncated || rec.LastLSN != 5 {
		t.Fatalf("recovered checkpoint %+v, truncated %v, LastLSN %d", rec.Checkpoint, rec.Truncated, rec.LastLSN)
	}
	if snap := rec.Checkpoint.Snapshot; snap.Events != 3 || snap.Clock != 12 || len(snap.Roads) != 3 {
		t.Fatalf("checkpoint snapshot: %d events, clock %v, %d edges", snap.Events, snap.Clock, len(snap.Roads))
	}
	want := [][]core.Event{
		nil,
		{core.MoveEvent(2, 1, 5), core.MoveEvent(0, 0, 20), core.LeaveEvent(1, 7)},
		nil,
		{core.MoveEvent(1, 6, 25), core.LeaveEvent(1, 30)},
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i+2) || !reflect.DeepEqual(r.Events, want[i]) {
			t.Errorf("record %d: LSN %d events %+v, want LSN %d events %+v", i, r.LSN, r.Events, i+2, want[i])
		}
	}
	again := encodeCheckpoint(rec.Checkpoint)
	const versionAt, orderingAt = len(ckptMagic), len(ckptMagic) + 4 + 8 + 8
	wantImg := append([]byte(nil), ckpt[:orderingAt]...)
	binary.LittleEndian.PutUint32(wantImg[versionAt:], ckptVersion)
	wantImg = append(append(append(wantImg, make([]byte, 8)...), 1), ckpt[orderingAt+1:len(ckpt)-4]...)
	if ckpt[versionAt] != 3 || ckpt[orderingAt] != 0 || !bytes.Equal(again[:len(again)-4], wantImg) {
		t.Fatalf("re-encoded checkpoint %x, want the older one %x as version 5 with apply number 0 and ordering byte 1", again, ckpt)
	}
}
