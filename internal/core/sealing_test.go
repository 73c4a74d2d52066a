package core_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Store-level tests of the tiered history (DESIGN.md §12): sealed
// stores must answer bit-identically to unsealed references across
// random seal points and both ordering contracts, sealing must be safe
// concurrently with ingestion and queries, snapshots must carry sealed
// form, and the Events/WorldEvents accessors must never alias store
// internals.

// compareStores requires ref and got to agree bit-for-bit on every
// per-direction event sequence, Count, interval count, and one-road
// step function over the given probe times.
func compareStores(t *testing.T, ref, got *core.Store, w *roadnet.World, probes []float64) {
	t.Helper()
	if ref.NumEvents() != got.NumEvents() {
		t.Fatalf("event counts: ref %d, got %d", ref.NumEvents(), got.NumEvents())
	}
	for road := 0; road < w.Star.NumEdges(); road++ {
		e := w.Star.Edge(planar.EdgeID(road))
		rt := ref.RoadTracker(planar.EdgeID(road))
		gt := got.RoadTracker(planar.EdgeID(road))
		for _, fwd := range []bool{true, false} {
			re, ge := rt.Events(fwd), gt.Events(fwd)
			if len(re) != len(ge) {
				t.Fatalf("road %d fwd=%v: %d vs %d events", road, fwd, len(re), len(ge))
			}
			for i := range re {
				if math.Float64bits(re[i]) != math.Float64bits(ge[i]) {
					t.Fatalf("road %d fwd=%v event %d: %v vs %v", road, fwd, i, re[i], ge[i])
				}
			}
		}
		toward := e.V
		for i := 0; i+1 < len(probes); i++ {
			t1, t2 := probes[i], probes[i+1]
			if a, b := ref.RoadCrossings(planar.EdgeID(road), toward, t1), got.RoadCrossings(planar.EdgeID(road), toward, t1); a != b {
				t.Fatalf("road %d RoadCrossings(%v): %v vs %v", road, t1, a, b)
			}
			if a, b := ref.RoadCrossings(planar.EdgeID(road), toward, t2)-ref.RoadCrossings(planar.EdgeID(road), toward, t1),
				got.RoadCrossings(planar.EdgeID(road), toward, t2)-got.RoadCrossings(planar.EdgeID(road), toward, t1); a != b {
				t.Fatalf("road %d crossings in (%v,%v]: %v vs %v", road, t1, t2, a, b)
			}
			cut := []core.CutRoad{{Road: planar.EdgeID(road), Inside: toward}}
			if a, b := ref.CutFlow(cut, nil, t1, t2), got.CutFlow(cut, nil, t1, t2); a != b {
				t.Fatalf("road %d CutFlow(%v,%v): %v vs %v", road, t1, t2, a, b)
			}
			rb, ra := ref.StaticSteps(cut, nil, t1, t2, nil)
			gb, ga := got.StaticSteps(cut, nil, t1, t2, nil)
			if rb != gb || len(ra) != len(ga) {
				t.Fatalf("road %d StaticSteps(%v,%v): base %v with %d steps vs base %v with %d", road, t1, t2, rb, len(ra), gb, len(ga))
			}
			for j := range ra {
				if ra[j] != ga[j] {
					t.Fatalf("road %d StaticSteps(%v,%v) step %d: %+v vs %+v", road, t1, t2, j, ra[j], ga[j])
				}
			}
		}
	}
}

// sealProbes spreads probe times over the event horizon, including the
// extremes.
func sealProbes(horizon float64) []float64 {
	probes := []float64{math.Inf(-1), 0}
	for f := 0.05; f < 1.0; f += 0.09 {
		probes = append(probes, f*horizon)
	}
	return append(probes, horizon, math.Inf(1))
}

// TestSealedVsUnsealedBitIdentical is the tiered-history correctness
// anchor: across both ordering contracts and random seal points /
// thresholds, a store sealed mid-stream answers everything
// bit-identically to an unsealed reference fed the same events. The
// mobility workload has off-grid timestamps, so this exercises the raw
// fallback segments; TestSealedTickGridBitIdentical covers the
// delta-encoded path.
func TestSealedVsUnsealedBitIdentical(t *testing.T) {
	w, wl := shardWorld(t, 19)
	events := toCoreEvents(t, wl)
	horizon := 0.0
	for _, ev := range events {
		if ev.T > horizon {
			horizon = ev.T
		}
	}
	probes := sealProbes(horizon)
	for _, ordering := range []core.Ordering{core.OrderGlobal, core.OrderPerEdge} {
		for iter := 0; iter < 4; iter++ {
			rng := rand.New(rand.NewSource(int64(100*iter) + int64(ordering)))
			ref := core.NewStore(w)
			ref.SetOrdering(ordering)
			sealed := core.NewStore(w)
			sealed.SetOrdering(ordering)
			// The workload spreads ~1600 events over ~220 directions, so
			// seal thresholds must be small for sealing to trigger at all.
			hotKeep := 1 + rng.Intn(4)
			if err := sealed.SetHistoryConfig(core.HistoryConfig{
				Tick:          0.001,
				HotKeep:       hotKeep,
				SealThreshold: hotKeep + 1 + rng.Intn(8),
			}); err != nil {
				t.Fatalf("SetHistoryConfig: %v", err)
			}
			for start := 0; start < len(events); {
				end := start + 1 + rng.Intn(40)
				if end > len(events) {
					end = len(events)
				}
				if err := ref.RecordBatch(events[start:end]); err != nil {
					t.Fatalf("ref ingest: %v", err)
				}
				if err := sealed.RecordBatch(events[start:end]); err != nil {
					t.Fatalf("sealed ingest: %v", err)
				}
				if rng.Intn(3) == 0 {
					sealed.SealColdPrefixes()
				}
				start = end
			}
			sealed.SealColdPrefixes()
			if sealed.Memory().SealedEvents == 0 {
				t.Fatalf("ordering %v iter %d: no events were sealed; test is vacuous", ordering, iter)
			}
			compareStores(t, ref, sealed, w, probes)
		}
	}
}

// TestSealedTickGridBitIdentical drives tick-aligned synthetic streams
// through random seal points so the delta-encoded (bit-packed and
// varint) segment paths are property-tested too, not just the raw
// fallback.
func TestSealedTickGridBitIdentical(t *testing.T) {
	w, _ := shardWorld(t, 29)
	const tick = 0.5
	rng := rand.New(rand.NewSource(31))
	ref := core.NewStore(w)
	ref.SetOrdering(core.OrderPerEdge)
	sealed := core.NewStore(w)
	sealed.SetOrdering(core.OrderPerEdge)
	if err := sealed.SetHistoryConfig(core.HistoryConfig{
		Tick: tick, HotKeep: 16, SealThreshold: 64,
	}); err != nil {
		t.Fatalf("SetHistoryConfig: %v", err)
	}
	nRoads := 6
	cursors := make([]int64, 2*nRoads)
	horizon := 0.0
	for round := 0; round < 200; round++ {
		d := rng.Intn(2 * nRoads)
		road := planar.EdgeID(d / 2)
		e := w.Star.Edge(road)
		from := e.U
		if d%2 == 1 {
			from = e.V
		}
		batch := make([]core.Event, 1+rng.Intn(30))
		for i := range batch {
			cursors[d] += int64(rng.Intn(9)) // zero deltas included
			batch[i] = core.MoveEvent(road, from, float64(cursors[d])*tick)
		}
		if ts := float64(cursors[d]) * tick; ts > horizon {
			horizon = ts
		}
		if err := ref.RecordBatch(batch); err != nil {
			t.Fatalf("ref ingest: %v", err)
		}
		if err := sealed.RecordBatch(batch); err != nil {
			t.Fatalf("sealed ingest: %v", err)
		}
		if rng.Intn(4) == 0 {
			sealed.SealColdPrefixes()
		}
	}
	st := sealed.SealColdPrefixes()
	if sealed.Memory().SealedEvents == 0 {
		t.Fatalf("no events sealed; test is vacuous")
	}
	if st.LossyFallbacks > 0 {
		t.Fatalf("tick-aligned stream took %d lossy fallbacks", st.LossyFallbacks)
	}
	compareStores(t, ref, sealed, w, sealProbes(horizon))
}

// TestSealedSnapshotRestoreRoundTrip exports a sealed store and
// restores it into a fresh one: answers must stay bit-identical and
// the sealed tier must survive in compact form (no rehydration).
func TestSealedSnapshotRestoreRoundTrip(t *testing.T) {
	w, wl := shardWorld(t, 43)
	events := toCoreEvents(t, wl)
	sealed := core.NewStore(w)
	if err := sealed.SetHistoryConfig(core.HistoryConfig{
		Tick: 0.001, HotKeep: 2, SealThreshold: 8,
	}); err != nil {
		t.Fatalf("SetHistoryConfig: %v", err)
	}
	if err := sealed.RecordBatch(events); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	sealed.SealColdPrefixes()
	mem := sealed.Memory()
	if mem.SealedEvents == 0 {
		t.Fatalf("no events sealed; test is vacuous")
	}

	snap := sealed.ExportSnapshot()
	restored := core.NewStore(w)
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	horizon := sealed.Clock()
	compareStores(t, sealed, restored, w, sealProbes(horizon))
	if got := restored.Memory(); got.SealedEvents != mem.SealedEvents || got.Segments != mem.Segments {
		t.Fatalf("restored sealed tier: %d events / %d segments, want %d / %d",
			got.SealedEvents, got.Segments, mem.SealedEvents, mem.Segments)
	}
}

// TestSealConcurrentWithIngestAndQueries races the sealer against
// per-edge writers and readers under -race, then requires the final
// state to match a serially built reference bit-for-bit.
func TestSealConcurrentWithIngestAndQueries(t *testing.T) {
	w, wl := shardWorld(t, 53)
	events := toCoreEvents(t, wl)
	const workers = 4
	parts := make([][]core.Event, workers)
	for _, ev := range events {
		p := eventOwner(ev, workers)
		parts[p] = append(parts[p], ev)
	}

	sealed := core.NewStore(w)
	sealed.SetOrdering(core.OrderPerEdge)
	if err := sealed.SetHistoryConfig(core.HistoryConfig{
		Tick: 0.001, HotKeep: 2, SealThreshold: 8,
	}); err != nil {
		t.Fatalf("SetHistoryConfig: %v", err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Sealer: loops until the writers finish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				sealed.SealColdPrefixes()
				return
			default:
				sealed.SealColdPrefixes()
			}
		}
	}()
	// Readers: exercise the lock-free query paths during sealing.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				road := planar.EdgeID(rng.Intn(w.Star.NumEdges()))
				e := w.Star.Edge(road)
				t1 := rng.Float64() * 8000
				t2 := t1 + rng.Float64()*1000
				// Earlier instant first: both counts only grow, in time and
				// with ingestion, so the later read cannot fall below it.
				lo := sealed.RoadCrossings(road, e.V, t1)
				if got := sealed.RoadCrossings(road, e.V, t2) - lo; got < 0 {
					panic("negative crossing count")
				}
				sealed.CutFlow([]core.CutRoad{{Road: road, Inside: e.V}}, nil, t1, t2)
				sealed.StaticSteps([]core.CutRoad{{Road: road, Inside: e.V}}, nil, t1, t2, nil)
			}
		}(int64(r))
	}
	var writers sync.WaitGroup
	for p := 0; p < workers; p++ {
		writers.Add(1)
		go func(part []core.Event) {
			defer writers.Done()
			for start := 0; start < len(part); start += 25 {
				end := start + 25
				if end > len(part) {
					end = len(part)
				}
				if err := sealed.RecordBatch(part[start:end]); err != nil {
					panic(err)
				}
			}
		}(parts[p])
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	ref := core.NewStore(w)
	ref.SetOrdering(core.OrderPerEdge)
	for p := 0; p < workers; p++ {
		if err := ref.RecordBatch(parts[p]); err != nil {
			t.Fatalf("ref ingest: %v", err)
		}
	}
	horizon := ref.Clock()
	compareStores(t, ref, sealed, w, sealProbes(horizon))
}

// TestEventsNotAliased is the regression test for the Tracker.Events /
// Store.WorldEvents aliasing audit: the returned slices must be
// copies, so callers can neither corrupt the store by writing through
// them nor observe later appends.
func TestEventsNotAliased(t *testing.T) {
	w, _ := shardWorld(t, 59)
	s := core.NewStore(w)
	road := planar.EdgeID(0)
	e := w.Star.Edge(road)
	for i := 0; i < 10; i++ {
		if err := s.RecordMove(road, e.U, float64(i+1)); err != nil {
			t.Fatalf("RecordMove: %v", err)
		}
	}
	tr := s.RoadTracker(road)
	got := tr.Events(true)
	if len(got) != 10 {
		t.Fatalf("Events returned %d timestamps, want 10", len(got))
	}
	// Writing through the returned slice must not corrupt the store.
	for i := range got {
		got[i] = -999
	}
	if c := s.RoadCrossings(road, e.V, 100); c != 10 {
		t.Fatalf("store corrupted through Events result: count %v, want 10", c)
	}
	// Later appends must not leak into a previously returned slice.
	trBefore := s.RoadTracker(road)
	before := trBefore.Events(true)
	for i := 10; i < 20; i++ {
		if err := s.RecordMove(road, e.U, float64(i+1)); err != nil {
			t.Fatalf("RecordMove: %v", err)
		}
	}
	if len(before) != 10 {
		t.Fatalf("earlier Events slice grew to %d", len(before))
	}
	for i := range before {
		if before[i] != float64(i+1) {
			t.Fatalf("earlier Events slice mutated at %d: %v", i, before[i])
		}
	}
}

func TestWorldEventsNotAliased(t *testing.T) {
	w, _ := shardWorld(t, 61)
	if len(w.Gateways) == 0 {
		t.Skip("world has no gateways")
	}
	g := w.Gateways[0]
	s := core.NewStore(w)
	for i := 0; i < 6; i++ {
		if err := s.RecordEnter(g, float64(i+1)); err != nil {
			t.Fatalf("RecordEnter: %v", err)
		}
	}
	in, _ := s.WorldEvents(g)
	if len(in) != 6 {
		t.Fatalf("WorldEvents returned %d entries, want 6", len(in))
	}
	for i := range in {
		in[i] = -999
	}
	if c := s.WorldCrossings(g, true, 100); c != 6 {
		t.Fatalf("store corrupted through WorldEvents result: count %v, want 6", c)
	}
}
