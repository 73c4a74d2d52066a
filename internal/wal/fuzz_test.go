package wal

import (
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
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
	l.AppendOrdering(core.OrderPerEdge)
	l.AppendBatch(offGridBatch)
	l.AppendBatch(testBatch(5))
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	older, _ := hex.DecodeString(olderBuildSegment)
	f.Add(written, uint64(0), uint64(0))
	f.Add(written, uint64(1), uint64(2))
	f.Add(written[:len(written)-3], uint64(0), uint64(0))
	f.Add(older, uint64(0), uint64(3))
	f.Add(older, uint64(0), uint64(1))
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
// is restored or refused by RestoreSnapshot, never a panic.
func FuzzCheckpointDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 3, NY: 3, Spacing: 50}, rng)
	if err != nil {
		f.Fatal(err)
	}
	store := core.NewStore(w)
	store.SetOrdering(core.OrderPerEdge)
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
	for _, snap := range []*core.StoreSnapshot{store.ExportSnapshot(), testSnapshot(3)} {
		img := encodeCheckpoint(&Checkpoint{LSN: 9, ServingEpoch: 2, Snapshot: snap})
		f.Add(img[:len(img)-4])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ck, err := decodeCheckpoint(appendU32(append([]byte(nil), body...), crcOf(body)))
		if err != nil {
			return
		}
		restored := core.NewStore(w)
		if err := restored.RestoreSnapshot(ck.Snapshot); err != nil {
			return
		}
		// A restored store answers: every tracked edge counts at its clock.
		for edge := 0; edge < w.NumTrackedEdges(); edge++ {
			tr := restored.RoadTracker(planar.EdgeID(edge))
			tr.Count(true, ck.Snapshot.Clock)
			tr.Count(false, ck.Snapshot.Clock)
		}
	})
}
