package wal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// TestCheckpointSealedHistoryRoundTrip covers the checkpoint format:
// a store with a sealed warm tier — on roads and on a gateway's world
// edge alike — must survive encodeCheckpoint →
// decodeCheckpoint → RestoreSnapshot with bit-identical answers AND
// with the sealed tier still in compact form (not rehydrated into hot
// slices).
func TestCheckpointSealedHistoryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 4, NY: 4, Spacing: 50, Jitter: 0.1}, rng)
	if err != nil {
		t.Fatalf("GridCity: %v", err)
	}
	store := core.NewStore(w)
	if err := store.SetHistoryConfig(core.HistoryConfig{
		Tick: 0.5, HotKeep: 4, SealThreshold: 16,
	}); err != nil {
		t.Fatalf("SetHistoryConfig: %v", err)
	}
	// Tick-aligned streams on a few roads (block-encoded runs) plus one
	// off-grid road (a raw run), so both sealed kinds travel through the
	// checkpoint.
	for road := 0; road < 4; road++ {
		e := w.Star.Edge(planar.EdgeID(road))
		tv := int64(1)
		for i := 0; i < 200; i++ {
			tv += int64(rng.Intn(9))
			ts := float64(tv) * 0.5
			if road == 3 {
				ts += 1.0 / 3 // off-grid: forces the raw fallback
			}
			if err := store.RecordMove(planar.EdgeID(road), e.U, ts); err != nil {
				t.Fatalf("RecordMove: %v", err)
			}
		}
	}
	// A gateway with two blocks of entries and of exits behind its hot
	// tail: world-edge history travels sealed, in the same section.
	gw := w.Gateways[0]
	for _, mk := range []func(planar.NodeID, float64) core.Event{core.EnterEvent, core.LeaveEvent} {
		tv := int64(1)
		for i := 0; i < 2*128+16+1; i++ {
			tv += int64(rng.Intn(9))
			if err := store.RecordBatch([]core.Event{mk(gw, float64(tv)*0.5)}); err != nil {
				t.Fatalf("RecordBatch: %v", err)
			}
		}
	}
	st := store.SealColdPrefixes()
	if tr := store.RoadTracker(w.WorldEdge(gw)); tr.SealedLen(true) < 2*128 || tr.SealedLen(false) < 2*128 {
		t.Fatalf("gateway %d: %d Enter and %d Leave events sealed, want two blocks of each", gw, tr.SealedLen(true), tr.SealedLen(false))
	}
	if st.SealedEvents == 0 {
		t.Fatalf("no events sealed; test is vacuous")
	}
	if st.LossyFallbacks == 0 {
		t.Fatalf("no raw run produced; test is incomplete")
	}

	ck := &Checkpoint{LSN: 123, ServingEpoch: 45, Snapshot: store.ExportSnapshot()}
	got, err := decodeCheckpoint(encodeCheckpoint(ck))
	if err != nil {
		t.Fatalf("decodeCheckpoint: %v", err)
	}
	if got.LSN != ck.LSN || got.ServingEpoch != ck.ServingEpoch {
		t.Fatalf("header round trip: LSN %d/%d epoch %d/%d", got.LSN, ck.LSN, got.ServingEpoch, ck.ServingEpoch)
	}

	restored := core.NewStore(w)
	if err := restored.RestoreSnapshot(got.Snapshot); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if restored.NumEvents() != store.NumEvents() {
		t.Fatalf("restored %d events, want %d", restored.NumEvents(), store.NumEvents())
	}
	for road := 0; road < w.NumTrackedEdges(); road++ {
		want := store.RoadTracker(planar.EdgeID(road))
		have := restored.RoadTracker(planar.EdgeID(road))
		for _, fwd := range []bool{true, false} {
			a, b := want.Events(fwd), have.Events(fwd)
			if len(a) != len(b) {
				t.Fatalf("road %d fwd=%v: %d vs %d events", road, fwd, len(b), len(a))
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("road %d fwd=%v event %d: %v, want %v", road, fwd, i, b[i], a[i])
				}
			}
		}
	}
	wm, rm := store.Memory(), restored.Memory()
	if rm.SealedEvents != wm.SealedEvents || rm.Runs != wm.Runs || rm.SealedBytes != wm.SealedBytes {
		t.Fatalf("restored sealed tier %d events / %d runs / %d bytes, want %d / %d / %d (rehydrated?)",
			rm.SealedEvents, rm.Runs, rm.SealedBytes, wm.SealedEvents, wm.Runs, wm.SealedBytes)
	}
}
