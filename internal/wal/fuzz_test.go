package wal

import (
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// FuzzWALSegment holds the segment reader to three things over
// arbitrary bytes: it never panics, the records it returns form an
// LSN-contiguous run (starting at expect when that is set), and they are
// a prefix — reading back just the bytes it vouched for returns the same
// records and no torn tail.
func FuzzWALSegment(f *testing.F) {
	dir := f.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	l.AppendBatch(onGridBatch)
	l.AppendBatch(offGridBatch)
	l.AppendBatch(testBatch(5))
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	// Numbered batches (type 4) between unnumbered ones.
	numberedDir := f.TempDir()
	l, _, err = Open(numberedDir, Options{Sync: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	l.AppendSeqBatch(3, onGridBatch)
	l.AppendBatch(testBatch(2))
	l.AppendSeqBatch(1<<40, offGridBatch)
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	numbered, err := os.ReadFile(filepath.Join(numberedDir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(numbered, uint64(0), uint64(0))
	f.Add(numbered, uint64(1), uint64(1))
	older, _ := hex.DecodeString(olderBuildSegment)
	ordering, _ := hex.DecodeString(olderOrderingSegment)
	f.Add(written, uint64(0), uint64(0))
	f.Add(written, uint64(1), uint64(2))
	f.Add(written[:len(written)-3], uint64(0), uint64(0))
	f.Add(older, uint64(0), uint64(3))
	f.Add(older, uint64(0), uint64(1))
	f.Add(ordering, uint64(0), uint64(1))
	f.Add(ordering, uint64(2), uint64(3))
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, expect, covered uint64) {
		records, next, validLen, torn, err := readSegment(data, expect, covered)
		if err != nil {
			if records != nil {
				t.Fatalf("refusal returned %d records", len(records))
			}
			return
		}
		if validLen < 0 || validLen > int64(len(data)) || !torn && validLen != int64(len(data)) {
			t.Fatalf("validLen %d of %d bytes, torn %v", validLen, len(data), torn)
		}
		for i, r := range records {
			if (i > 0 || expect != 0) && r.LSN != expect {
				t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, expect)
			}
			expect = r.LSN + 1
		}
		if next != expect {
			t.Fatalf("next LSN %d, want %d", next, expect)
		}
		again, _, _, tornAgain, err := readSegment(data[:validLen], 0, covered)
		if err != nil || tornAgain || !reflect.DeepEqual(again, records) {
			t.Fatalf("re-reading the vouched-for %d bytes: %d records (want %d), torn %v, err %v",
				validLen, len(again), len(records), tornAgain, err)
		}
	})
}

// FuzzCheckpointDecode feeds the checkpoint loader arbitrary bodies
// under a valid trailing CRC — the checksum stops bit rot, not a crafted
// file — and requires that it never panics and that whatever it accepts
// is restored or refused by RestoreSnapshot, never a panic. The same
// snapshot restored into a 4-member partition.Set — each edge routed to
// its owner, an edge id range-checked before it indexes the routing
// table — is refused exactly when the single store refuses it, and
// otherwise exports back as the union it was decoded as.
func FuzzCheckpointDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 3, NY: 3, Spacing: 50}, rng)
	if err != nil {
		f.Fatal(err)
	}
	lay, err := partition.Build(w, 4)
	if err != nil {
		f.Fatal(err)
	}
	store := core.NewStore(w)
	if err := store.SetHistoryConfig(core.HistoryConfig{Tick: 0.5, HotKeep: 2, SealThreshold: 8}); err != nil {
		f.Fatal(err)
	}
	e := w.Star.Edge(0)
	for i := 0; i < 300; i++ {
		ts := float64(i) * 0.5
		if i%97 == 0 {
			ts += 0.125
		}
		if err := store.RecordMove(0, e.U, ts); err != nil {
			f.Fatal(err)
		}
		if err := store.RecordBatch([]core.Event{core.EnterEvent(w.Gateways[0], ts)}); err != nil {
			f.Fatal(err)
		}
	}
	store.SealColdPrefixes()
	// A set whose union spans every member: one crossing of every road.
	set := partition.NewSet(w, lay)
	for road := 0; road < w.NumRoads(); road++ {
		if err := set.RecordBatch([]core.Event{core.MoveEvent(planar.EdgeID(road), w.Star.Edge(planar.EdgeID(road)).V, float64(road))}); err != nil {
			f.Fatal(err)
		}
	}
	union, err := set.ExportSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	// Images that decode yet hold what no store exports — each must be
	// refused, or the set could not export back what it restored. Random
	// mutation rarely keeps such an image self-consistent.
	crafted := func(edit func(*core.StoreSnapshot)) *core.StoreSnapshot {
		snap := testSnapshot(3)
		edit(snap)
		return snap
	}
	for _, snap := range []*core.StoreSnapshot{
		store.ExportSnapshot(), testSnapshot(3), union,
		crafted(func(s *core.StoreSnapshot) { s.Roads = append(s.Roads, core.RoadForms{Road: 4}) }),
		crafted(func(s *core.StoreSnapshot) { s.Roads[0].Fwd[0] = math.NaN() }),
		crafted(func(s *core.StoreSnapshot) { s.Clock = -1 }),
		crafted(func(s *core.StoreSnapshot) { s.Clock = math.NaN() }),
		crafted(func(s *core.StoreSnapshot) { s.Roads[0].Road = planar.EdgeID(w.NumTrackedEdges()) }),
	} {
		img := encodeCheckpoint(&Checkpoint{LSN: 9, ServingEpoch: 2, Snapshot: snap})
		f.Add(img[:len(img)-4])
	}
	// Version-4 headers: an apply number after the serving epoch.
	for _, seq := range []uint64{1, 77, math.MaxUint64} {
		img := encodeCheckpoint(&Checkpoint{LSN: 9, ServingEpoch: 2, AppliedSeq: seq, Snapshot: store.ExportSnapshot()})
		f.Add(img[:len(img)-4])
	}
	older, _ := hex.DecodeString(olderOrderingCheckpoint)
	f.Add(older[:len(older)-4])
	// Versions 3 and 4 with one sealed history a direction.
	for _, name := range []string{"ckpt-v3.stq", "ckpt-v4.stq"} {
		img, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img[:len(img)-4])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ck, err := decodeCheckpoint(appendU32(append([]byte(nil), body...), crcOf(body)))
		if err != nil {
			return
		}
		restored := core.NewStore(w)
		storeErr := restored.RestoreSnapshot(ck.Snapshot)
		set := partition.NewSet(w, lay)
		setErr := set.RestoreSnapshot(ck.Snapshot)
		if (storeErr == nil) != (setErr == nil) {
			t.Fatalf("single store: %v; 4-member set: %v", storeErr, setErr)
		}
		if storeErr != nil {
			return
		}
		// A restored store answers: every tracked edge counts at its clock.
		for edge := 0; edge < w.NumTrackedEdges(); edge++ {
			tr := restored.RoadTracker(planar.EdgeID(edge))
			tr.Count(true, ck.Snapshot.Clock)
			tr.Count(false, ck.Snapshot.Clock)
		}
		got, err := set.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ck.Snapshot) {
			t.Fatalf("the set exports %d edges, %d events, clock %v; it restored %d edges, %d events, clock %v",
				len(got.Roads), got.Events, got.Clock,
				len(ck.Snapshot.Roads), ck.Snapshot.Events, ck.Snapshot.Clock)
		}
	})
}
