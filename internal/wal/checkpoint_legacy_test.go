package wal

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// legacyWorld is the world the testdata checkpoints were taken over.
func legacyWorld(t *testing.T) *roadnet.World {
	t.Helper()
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 3, NY: 3, Spacing: 50}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// legacyRounds are the batches the testdata checkpoints hold: six rounds
// over both directions of roads 0–3 and one gateway's world edge, at a
// 0.5 tick. Road 3's forward direction is off the grid; road 1's
// reverse direction idles through rounds 1–4 and road 2's never reaches
// the seal threshold.
func legacyRounds(w *roadnet.World) [][]core.Event {
	rng := rand.New(rand.NewSource(11))
	var ticks [6][2]int64
	var rounds [][]core.Event
	for r := 0; r < 6; r++ {
		var batch []core.Event
		for k := 0; k < 30; k++ {
			for road := 0; road < 4; road++ {
				e := w.Star.Edge(planar.EdgeID(road))
				for d, from := range []planar.NodeID{e.U, e.V} {
					if road == 1 && d == 1 && r > 0 && r < 5 || road == 2 && d == 1 && (r > 0 || k >= 10) {
						continue
					}
					ticks[road][d] += int64(rng.Intn(9))
					ts := float64(ticks[road][d]) * 0.5
					if road == 3 && d == 0 {
						ts += 1.0 / 3
					}
					batch = append(batch, core.MoveEvent(planar.EdgeID(road), from, ts))
				}
			}
			gw := w.Gateways[0]
			for d, mk := range []func(planar.NodeID, float64) core.Event{core.EnterEvent, core.LeaveEvent} {
				ticks[4+d][0] += int64(rng.Intn(9))
				batch = append(batch, mk(gw, float64(ticks[4+d][0])*0.5))
			}
		}
		rounds = append(rounds, batch)
	}
	return rounds
}

// TestOlderCheckpointsRestore: checkpoint images of versions 3 and 4 —
// one sealed history a direction, written by the build before one
// sealed run an edge (testdata/ckpt-v3.stq, ckpt-v4.stq: legacyRounds
// ingested with a seal pass after each round at HotKeep 4 /
// SealThreshold 16, then checkpointed with apply numbers 0 and 7) —
// reopen through Open, restore with each edge's two directions sealed
// into one run, and answer == a store fed the same batches that never
// sealed: every direction's events bit for bit, and every region of
// one and of four junctions at every probe time and window. Written
// again, as version 5, the restored snapshot restores to the same
// answers.
func TestOlderCheckpointsRestore(t *testing.T) {
	w := legacyWorld(t)
	ref := core.NewStore(w)
	for _, b := range legacyRounds(w) {
		if err := ref.RecordBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	var regions []*core.Region
	for j := 0; j < w.Star.NumNodes(); j++ {
		for _, js := range [][]planar.NodeID{{planar.NodeID(j)}, {planar.NodeID(j), planar.NodeID((j + 1) % w.Star.NumNodes()), planar.NodeID((j + 3) % w.Star.NumNodes()), planar.NodeID((j + 4) % w.Star.NumNodes())}} {
			if r, err := core.NewRegion(w, js); err == nil {
				regions = append(regions, r)
			}
		}
	}
	probes := []float64{math.Inf(-1), 0, math.Inf(1), math.NaN()}
	for tm := 0.0; tm <= ref.Clock()+1; tm += 7.25 {
		probes = append(probes, tm, tm+0.5, tm+1.0/3)
	}
	same := func(t *testing.T, name string, got *core.Store) {
		t.Helper()
		if got.NumEvents() != ref.NumEvents() || got.Clock() != ref.Clock() {
			t.Fatalf("%s: %d events at clock %v, want %d at %v", name, got.NumEvents(), got.Clock(), ref.NumEvents(), ref.Clock())
		}
		for e := 0; e < w.NumTrackedEdges(); e++ {
			a, b := ref.RoadTracker(planar.EdgeID(e)), got.RoadTracker(planar.EdgeID(e))
			for _, fwd := range []bool{true, false} {
				want, have := a.Events(fwd), b.Events(fwd)
				if len(want) != len(have) {
					t.Fatalf("%s: edge %d forward %v holds %d events, want %d", name, e, fwd, len(have), len(want))
				}
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(have[i]) {
						t.Fatalf("%s: edge %d forward %v event %d = %v, want %v", name, e, fwd, i, have[i], want[i])
					}
				}
			}
		}
		eq := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
		for ri, r := range regions {
			for i, t1 := range probes {
				if a, b := core.SnapshotCount(got, r, t1), core.SnapshotCount(ref, r, t1); !eq(a, b) {
					t.Fatalf("%s: region %d snapshot at %v = %v, want %v", name, ri, t1, a, b)
				}
				t2 := probes[(i*7+3)%len(probes)]
				if a, b := core.TransientCount(got, r, t1, t2), core.TransientCount(ref, r, t1, t2); !eq(a, b) {
					t.Fatalf("%s: region %d transient (%v, %v] = %v, want %v", name, ri, t1, t2, a, b)
				}
				if a, b := core.StaticCount(got, r, t1, t2), core.StaticCount(ref, r, t1, t2); !eq(a, b) {
					t.Fatalf("%s: region %d static (%v, %v] = %v, want %v", name, ri, t1, t2, a, b)
				}
			}
		}
	}
	for _, tc := range []struct {
		file    string
		version uint32
		seq     uint64
	}{{"ckpt-v3.stq", 3, 0}, {"ckpt-v4.stq", 4, 7}} {
		t.Run(tc.file, func(t *testing.T) {
			img, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if v := uint32(img[len(ckptMagic)]); v != tc.version {
				t.Fatalf("%s is a version-%d image, want %d", tc.file, v, tc.version)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, ckptName(1)), img, 0o644); err != nil {
				t.Fatal(err)
			}
			l, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			ck := rec.Checkpoint
			if ck == nil || ck.LSN != 1 || ck.ServingEpoch != 2 || ck.AppliedSeq != tc.seq {
				t.Fatalf("recovered checkpoint %+v, want LSN 1, epoch 2, apply number %d", ck, tc.seq)
			}
			restored := core.NewStore(w)
			if err := restored.RestoreSnapshot(ck.Snapshot); err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}
			// Every edge but road 2 sealed both directions, road 2 its
			// forward one: five runs, 4·(176+176) − 120 + 176 events.
			if m := restored.Memory(); m.Runs != 5 || m.SealedEvents != 4*352-120+176 {
				t.Fatalf("restored %d sealed runs holding %d events, want 5 and %d", m.Runs, m.SealedEvents, 4*352-120+176)
			}
			same(t, tc.file, restored)

			again, err := decodeCheckpoint(encodeCheckpoint(&Checkpoint{LSN: 1, ServingEpoch: 2, AppliedSeq: tc.seq, Snapshot: restored.ExportSnapshot()}))
			if err != nil {
				t.Fatal(err)
			}
			rewritten := core.NewStore(w)
			if err := rewritten.RestoreSnapshot(again.Snapshot); err != nil {
				t.Fatalf("RestoreSnapshot of the version-5 image: %v", err)
			}
			same(t, tc.file+" as version 5", rewritten)
		})
	}
}
