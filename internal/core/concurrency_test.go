package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// TestStoreConcurrentReadersOneWriter exercises the documented
// concurrency contract: one ingesting goroutine, many querying
// goroutines, under the race detector (go test -race).
func TestStoreConcurrentReadersOneWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 8, NY: 8, Spacing: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	gw := w.Gateways[0]
	region, err := core.NewRegion(w, w.JunctionsIn(w.Bounds()))
	if err != nil {
		t.Fatal(err)
	}

	const events = 3000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: hammer counts while ingestion runs.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts := rr.Float64() * float64(events)
				if got := core.SnapshotCount(st, region, ts); got < 0 {
					t.Errorf("negative world occupancy %v", got)
					return
				}
				_ = core.TransientCount(st, region, ts/2, ts)
			}
		}(int64(r))
	}
	// Writer: one object random-walking, time strictly increasing.
	if err := st.RecordEnter(gw, 0); err != nil {
		t.Fatal(err)
	}
	cur := gw
	for i := 1; i <= events; i++ {
		inc := w.Star.Incident(cur)
		e := inc[rng.Intn(len(inc))]
		if err := st.RecordMove(e, cur, float64(i)); err != nil {
			t.Fatal(err)
		}
		cur = w.Star.Edge(e).Other(cur)
	}
	close(stop)
	wg.Wait()

	// Occupancy of the whole world must be exactly 1 at the end.
	if got := core.SnapshotCount(st, region, float64(events)+1); got != 1 {
		t.Errorf("final occupancy = %v, want 1", got)
	}
	if st.NumEvents() != events+1 {
		t.Errorf("events = %d", st.NumEvents())
	}
}

// TestRoadTrackerConcurrentWithIngest exercises the RoadTracker
// aliasing contract under the race detector: tracker snapshots are read
// (counts, raw events) while a writer keeps appending to the same
// trackers, via both the per-event and the batch ingestion paths.
func TestRoadTrackerConcurrentWithIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 6, NY: 6, Spacing: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	gw := w.Gateways[0]
	if err := st.RecordEnter(gw, 0); err != nil {
		t.Fatal(err)
	}

	const events = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				road := planar.EdgeID(rr.Intn(w.Star.NumEdges()))
				trk := st.RoadTracker(road)
				n := trk.Count(true, float64(events)) + trk.Count(false, float64(events))
				if n < 0 || n != trk.Len() {
					t.Errorf("tracker snapshot inconsistent: counts %d vs len %d", n, trk.Len())
					return
				}
				for _, ts := range trk.Events(rr.Intn(2) == 0) {
					if ts < 0 {
						t.Error("negative timestamp in snapshot")
						return
					}
				}
			}
		}(int64(r))
	}
	// Writer: alternate single-event and batch ingestion.
	cur := gw
	batch := make([]core.Event, 0, 16)
	for i := 1; i <= events; i++ {
		inc := w.Star.Incident(cur)
		e := inc[rng.Intn(len(inc))]
		if i%3 == 0 {
			// Flush pending batch first to keep global time ordering.
			if err := st.RecordBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
			if err := st.RecordMove(e, cur, float64(i)); err != nil {
				t.Fatal(err)
			}
		} else {
			batch = append(batch, core.MoveEvent(e, cur, float64(i)))
			if len(batch) == cap(batch) {
				if err := st.RecordBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		cur = w.Star.Edge(e).Other(cur)
	}
	if err := st.RecordBatch(batch); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if st.NumEvents() != events+1 {
		t.Errorf("events = %d, want %d", st.NumEvents(), events+1)
	}
}

// TestStoreRejectsOutOfOrderAcrossKinds: a gateway's entries and exits
// are the two directions of its world edge and a road is an edge of its
// own, so a move and an exit before an entry are accepted, while a batch
// of mixed kinds in which an entry goes back in time is refused whole.
func TestStoreRejectsOutOfOrderAcrossKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 4, NY: 4, Spacing: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	gw := w.Gateways[0]
	if err := st.RecordEnter(gw, 100); err != nil {
		t.Fatal(err)
	}
	var road planar.EdgeID
	for _, e := range w.Star.Incident(gw) {
		road = e
		break
	}
	if err := st.RecordMove(road, gw, 99); err != nil {
		t.Errorf("move on another edge before the entry refused: %v", err)
	}
	if err := st.RecordLeave(gw, 50); err != nil {
		t.Errorf("exit before the entry refused: %v", err)
	}
	err = st.RecordBatch([]core.Event{core.MoveEvent(road, gw, 120), core.LeaveEvent(gw, 121), core.EnterEvent(gw, 99)})
	if want := fmt.Sprintf("core: batch event 2 at 99 precedes last crossing 100 on the world edge of gateway %d (per-edge order)", gw); err == nil || err.Error() != want {
		t.Errorf("entry regressing in a mixed batch: err = %v, want %q", err, want)
	}
	if n := st.NumEvents(); n != 3 {
		t.Errorf("the refused batch left %d events, want 3", n)
	}
}
