package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

func snapshotTestWorld(t *testing.T) *roadnet.World {
	t.Helper()
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 5, NY: 5, Spacing: 100}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("GridCity: %v", err)
	}
	return w
}

// fillStore ingests a deterministic mixed stream and returns the events.
func fillStore(t *testing.T, s *Store, w *roadnet.World, n int, seed int64) []Event {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gws := w.Gateways
	var events []Event
	tm := s.Clock()
	for i := 0; i < n; i++ {
		tm += rng.Float64() * 5
		switch rng.Intn(4) {
		case 0:
			events = append(events, EnterEvent(gws[rng.Intn(len(gws))], tm))
		case 1:
			events = append(events, LeaveEvent(gws[rng.Intn(len(gws))], tm))
		default:
			road := planar.EdgeID(rng.Intn(w.Star.NumEdges()))
			e := w.Star.Edge(road)
			from := e.U
			if rng.Intn(2) == 0 {
				from = e.V
			}
			events = append(events, MoveEvent(road, from, tm))
		}
	}
	if err := s.RecordBatch(events); err != nil {
		t.Fatalf("RecordBatch: %v", err)
	}
	return events
}

// queriesEqual asserts bit-identical counting behaviour of two stores
// over a grid of probe regions and times.
func queriesEqual(t *testing.T, w *roadnet.World, a, b *Store, horizon float64) {
	t.Helper()
	bounds := w.Bounds()
	rects := []struct{ fx0, fy0, fx1, fy1 float64 }{
		{0, 0, 1, 1}, {0.1, 0.1, 0.6, 0.7}, {0.3, 0.2, 0.9, 0.9}, {0.45, 0.45, 0.55, 0.55},
	}
	for ri, rc := range rects {
		x0 := bounds.Min.X + rc.fx0*bounds.Width()
		y0 := bounds.Min.Y + rc.fy0*bounds.Height()
		x1 := bounds.Min.X + rc.fx1*bounds.Width()
		y1 := bounds.Min.Y + rc.fy1*bounds.Height()
		js := w.JunctionsIn(geom.NewRect(geom.Pt(x0, y0), geom.Pt(x1, y1)))
		ra, err := NewRegion(w, js)
		if err != nil {
			t.Fatalf("region: %v", err)
		}
		rb, err := NewRegion(w, js)
		if err != nil {
			t.Fatalf("region: %v", err)
		}
		for _, tf := range []float64{0, 0.25, 0.5, 0.75, 1} {
			probe := tf * horizon
			if got, want := SnapshotCount(b, rb, probe), SnapshotCount(a, ra, probe); got != want {
				t.Fatalf("rect %d t=%v: SnapshotCount %v != %v", ri, probe, got, want)
			}
			if got, want := TransientCount(b, rb, probe*0.3, probe), TransientCount(a, ra, probe*0.3, probe); got != want {
				t.Fatalf("rect %d t=%v: TransientCount %v != %v", ri, probe, got, want)
			}
			if got, want := StaticCount(b, rb, probe*0.3, probe), StaticCount(a, ra, probe*0.3, probe); got != want {
				t.Fatalf("rect %d t=%v: StaticCount %v != %v", ri, probe, got, want)
			}
		}
	}
}

func TestSnapshotExportRestoreRoundTrip(t *testing.T) {
	w := snapshotTestWorld(t)
	src := NewStore(w)
	fillStore(t, src, w, 800, 11)

	snap := src.ExportSnapshot()
	dst := NewStore(w)
	if err := dst.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if got, want := dst.NumEvents(), src.NumEvents(); got != want {
		t.Fatalf("NumEvents %d != %d", got, want)
	}
	if got, want := dst.Clock(), src.Clock(); got != want {
		t.Fatalf("Clock %v != %v", got, want)
	}
	queriesEqual(t, w, src, dst, src.Clock())

	// The restored store keeps ingesting: append one more event to both
	// and they must stay identical.
	tmNext := src.Clock() + 1
	road := planar.EdgeID(0)
	from := w.Star.Edge(road).U
	if err := src.RecordMove(road, from, tmNext); err != nil {
		t.Fatalf("src RecordMove: %v", err)
	}
	if err := dst.RecordMove(road, from, tmNext); err != nil {
		t.Fatalf("dst RecordMove: %v", err)
	}
	queriesEqual(t, w, src, dst, src.Clock())
}

func TestSnapshotRestoreIsolation(t *testing.T) {
	// The restore copies timestamps: mutating the source after restore
	// must not leak into the restored store.
	w := snapshotTestWorld(t)
	src := NewStore(w)
	fillStore(t, src, w, 200, 3)
	before := src.NumEvents()
	snap := src.ExportSnapshot()
	dst := NewStore(w)
	if err := dst.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	fillStore(t, src, w, 200, 4)
	if got := dst.NumEvents(); got != before {
		t.Fatalf("restored store changed after source mutation: %d != %d", got, before)
	}
}

func TestSnapshotRestoreValidation(t *testing.T) {
	w := snapshotTestWorld(t)
	src := NewStore(w)
	fillStore(t, src, w, 100, 5)
	good := src.ExportSnapshot()

	cases := []struct {
		name   string
		mutate func(s *StoreSnapshot)
	}{
		{"non-empty target", nil},
		{"road out of range", func(s *StoreSnapshot) { s.Roads[len(s.Roads)-1].Road = planar.EdgeID(w.NumTrackedEdges()) }},
		{"roads out of order", func(s *StoreSnapshot) { s.Roads[0].Road = s.Roads[1].Road }},
		{"unsorted timestamps", func(s *StoreSnapshot) {
			for i := range s.Roads {
				if len(s.Roads[i].Fwd) >= 2 {
					fwd := copyTimes(s.Roads[i].Fwd)
					fwd[0], fwd[len(fwd)-1] = fwd[len(fwd)-1]+1, fwd[0]
					s.Roads[i].Fwd = fwd
					return
				}
			}
		}},
		{"event count mismatch", func(s *StoreSnapshot) { s.Events += 3 }},
		{"clock behind events", func(s *StoreSnapshot) { s.Clock = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := NewStore(w)
			snap := *good
			snap.Roads = append([]RoadForms(nil), good.Roads...)
			if tc.mutate == nil {
				fillStore(t, dst, w, 10, 6)
			} else {
				tc.mutate(&snap)
			}
			if err := dst.RestoreSnapshot(&snap); err == nil {
				t.Fatalf("RestoreSnapshot accepted invalid snapshot")
			}
		})
	}
}
