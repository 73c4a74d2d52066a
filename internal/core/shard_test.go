package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mobility"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// shardWorld builds a small grid world plus a generated workload for the
// sharded-store tests.
func shardWorld(t testing.TB, seed int64) (*roadnet.World, *mobility.Workload) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 8, NY: 8, Spacing: 50, Jitter: 0.2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 60, Horizon: 8000, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 200, LeaveProb: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return w, wl
}

// toCoreEvents converts workload ground truth to store events.
func toCoreEvents(t testing.TB, wl *mobility.Workload) []core.Event {
	t.Helper()
	out := make([]core.Event, 0, len(wl.Events))
	for _, ev := range wl.Events {
		switch ev.Kind {
		case mobility.Enter:
			out = append(out, core.EnterEvent(ev.At, ev.T))
		case mobility.Leave:
			out = append(out, core.LeaveEvent(ev.At, ev.T))
		case mobility.Move:
			out = append(out, core.MoveEvent(ev.Road, ev.From, ev.T))
		default:
			t.Fatalf("unknown workload event kind %d", ev.Kind)
		}
	}
	return out
}

// eventOwner partitions events by sensing edge: every road's (and every
// gateway's) events always land in the same partition, so each
// partition is a per-edge-monotone stream — the in-network model.
func eventOwner(ev core.Event, workers int) int {
	if ev.Kind == core.EventMove {
		return int(ev.Road) % workers
	}
	return int(ev.Gateway) % workers
}

// TestConcurrentShardedWritersBitIdentical is the sharded-store
// correctness anchor: W concurrent writers ingesting disjoint edge
// partitions must leave the store bit-identical — every tracking form,
// every world-event list, the clock, and the event count — to a single
// writer feeding the same globally ordered stream.
func TestConcurrentShardedWritersBitIdentical(t *testing.T) {
	w, wl := shardWorld(t, 7)
	events := toCoreEvents(t, wl)
	const workers = 4
	parts := make([][]core.Event, workers)
	for _, ev := range events {
		o := eventOwner(ev, workers)
		parts[o] = append(parts[o], ev)
	}
	assertConcurrentMatchesSingle(t, w, events, parts)
}

// TestConcurrentWritersShareTrackers splits the stream by direction
// instead of by edge: one writer takes the moves from a road's U end,
// one the moves from its V end, one the entries and one the exits. So
// two writers publish every tracker, and each one's lock-free routing
// pass reads forms the other is republishing under the stripe lock —
// an interleaving the edge split above never reaches, since its writers
// own disjoint trackers. The store must still end bit-identical to a
// single writer's.
func TestConcurrentWritersShareTrackers(t *testing.T) {
	w, wl := shardWorld(t, 13)
	events := toCoreEvents(t, wl)
	parts := make([][]core.Event, 4)
	for _, ev := range events {
		var o int
		switch ev.Kind {
		case core.EventMove:
			if u, _ := w.TrackedEnds(ev.Road); ev.From != u {
				o = 1
			}
		case core.EventEnter:
			o = 2
		case core.EventLeave:
			o = 3
		}
		parts[o] = append(parts[o], ev)
	}
	for o, part := range parts {
		if len(part) == 0 {
			t.Fatalf("writer %d has no events; the test is vacuous", o)
		}
	}
	assertConcurrentMatchesSingle(t, w, events, parts)
}

// assertConcurrentMatchesSingle ingests events into one store from a
// single writer and parts — each monotone per tracking form — into
// another from one goroutine a part, each part in batches of 97 events,
// and requires the two stores bit-identical: every tracking form, the
// clock and the event count.
func assertConcurrentMatchesSingle(t *testing.T, w *roadnet.World, events []core.Event, parts [][]core.Event) {
	t.Helper()
	ref := core.NewStore(w)
	if err := ref.RecordBatch(events); err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part []core.Event) {
			defer wg.Done()
			const chunk = 97 // deliberately odd so batches straddle shards unevenly
			for lo := 0; lo < len(part); lo += chunk {
				hi := min(lo+chunk, len(part))
				if err := st.RecordBatch(part[lo:hi]); err != nil {
					t.Errorf("concurrent partition ingest: %v", err)
					return
				}
			}
		}(part)
	}
	wg.Wait()

	if st.NumEvents() != ref.NumEvents() {
		t.Fatalf("NumEvents = %d, want %d", st.NumEvents(), ref.NumEvents())
	}
	if st.Clock() != ref.Clock() {
		t.Fatalf("Clock = %v, want %v", st.Clock(), ref.Clock())
	}
	// Every tracked edge: the roads and the world edges behind them.
	for road := 0; road < w.NumTrackedEdges(); road++ {
		got, want := st.RoadTracker(planar.EdgeID(road)), ref.RoadTracker(planar.EdgeID(road))
		for _, fwd := range []bool{true, false} {
			g, r := got.Events(fwd), want.Events(fwd)
			if len(g) != len(r) {
				t.Fatalf("road %d fwd=%v: %d events, want %d", road, fwd, len(g), len(r))
			}
			for i := range g {
				if g[i] != r[i] {
					t.Fatalf("road %d fwd=%v event %d: %v != %v", road, fwd, i, g[i], r[i])
				}
			}
		}
	}
}

// TestOrderPerEdgeValidation pins the one ordering contract, a fresh
// store's: time may regress across different sensing edges, but never
// within one tracking form direction or one world-edge direction.
func TestOrderPerEdgeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 4, NY: 4, Spacing: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	gw := w.Gateways[0]
	roadA := w.Star.Incident(gw)[0]
	fromA := gw
	var roadB planar.EdgeID
	for e := planar.EdgeID(0); int(e) < w.Star.NumEdges(); e++ {
		if e != roadA {
			roadB = e
			break
		}
	}
	fromB := w.Star.Edge(roadB).U

	if err := st.RecordMove(roadA, fromA, 100); err != nil {
		t.Fatal(err)
	}
	// Cross-edge regression: allowed (independent sensor clocks).
	if err := st.RecordMove(roadB, fromB, 5); err != nil {
		t.Errorf("cross-edge time regression rejected: %v", err)
	}
	// Same-form regression: rejected.
	if err := st.RecordMove(roadA, fromA, 99); err == nil {
		t.Error("same-direction regression accepted")
	}
	// Opposite direction of the same road is an independent form.
	other := w.Star.Edge(roadA).Other(fromA)
	if err := st.RecordMove(roadA, other, 1); err != nil {
		t.Errorf("opposite-direction crossing rejected: %v", err)
	}
	// World edges: per-direction monotone per gateway.
	if err := st.RecordEnter(gw, 50); err != nil {
		t.Fatal(err)
	}
	if err := st.RecordEnter(gw, 49); err == nil {
		t.Error("world-entry regression accepted")
	}
	if err := st.RecordLeave(gw, 1); err != nil {
		t.Errorf("world-exit with earlier clock rejected (independent direction): %v", err)
	}
	// Batches: cross-edge disorder fine, same-form disorder rejected.
	if err := st.RecordBatch([]core.Event{
		core.MoveEvent(roadB, fromB, 200),
		core.MoveEvent(roadA, fromA, 150),
	}); err != nil {
		t.Errorf("cross-edge disorder in batch rejected: %v", err)
	}
	if err := st.RecordBatch([]core.Event{
		core.MoveEvent(roadA, fromA, 300),
		core.MoveEvent(roadA, fromA, 250),
	}); err == nil {
		t.Error("same-form disorder in batch accepted")
	}
}

// TestRecordBatchMultiShardAtomic extends the batch-atomicity contract
// to batches spanning many lock stripes: a per-edge order violation at
// the end of a wide batch must leave every stripe's published state —
// trackers, world views, clock, event count — untouched.
func TestRecordBatchMultiShardAtomic(t *testing.T) {
	w, wl := shardWorld(t, 11)
	events := toCoreEvents(t, wl)
	st := core.NewStore(w)
	if err := st.RecordBatch(events); err != nil {
		t.Fatal(err)
	}
	beforeEvents, beforeClock := st.NumEvents(), st.Clock()
	beforeStorage := st.Storage()

	// A wide batch touching > numShards distinct roads, ending with an
	// event that regresses one already-populated tracking form.
	var bad core.Event
	var badRoad planar.EdgeID
	for road := 0; road < w.Star.NumEdges(); road++ {
		tr := st.RoadTracker(planar.EdgeID(road))
		if ts := tr.Events(true); len(ts) > 0 && ts[0] > 1 {
			badRoad = planar.EdgeID(road)
			bad = core.MoveEvent(badRoad, w.Star.Edge(badRoad).U, ts[0]-1)
			break
		}
	}
	if bad.Kind != core.EventMove {
		t.Fatal("workload produced no populated forward tracking form")
	}
	batch := make([]core.Event, 0, w.Star.NumEdges()+1)
	for road := 0; road < w.Star.NumEdges(); road++ {
		batch = append(batch, core.MoveEvent(planar.EdgeID(road), w.Star.Edge(planar.EdgeID(road)).U, beforeClock+float64(road)))
	}
	batch = append(batch, bad)
	if err := st.RecordBatch(batch); err == nil {
		t.Fatal("batch with trailing per-edge violation accepted")
	}
	if st.NumEvents() != beforeEvents {
		t.Errorf("NumEvents changed: %d -> %d", beforeEvents, st.NumEvents())
	}
	if st.Clock() != beforeClock {
		t.Errorf("Clock changed: %v -> %v", beforeClock, st.Clock())
	}
	afterStorage := st.Storage()
	if afterStorage.TotalTimestamps != beforeStorage.TotalTimestamps {
		t.Errorf("timestamps changed: %d -> %d", beforeStorage.TotalTimestamps, afterStorage.TotalTimestamps)
	}
	for i, n := range beforeStorage.TimestampsPerRoad {
		if afterStorage.TimestampsPerRoad[i] != n {
			t.Errorf("road %d storage changed: %d -> %d", i, n, afterStorage.TimestampsPerRoad[i])
		}
	}
}
