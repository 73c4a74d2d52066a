package core_test

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Store-level tests of the tiered history (DESIGN.md §12): sealed
// stores must answer bit-identically to unsealed references across
// random seal points, sealing must be safe
// concurrently with ingestion and queries, snapshots must carry sealed
// form (world edges included), and the Events accessor must never alias
// store internals.

// compareStores requires ref and got to agree bit-for-bit on every
// per-direction event sequence, Count, interval count, and one-edge
// step function over the given probe times — on every tracked edge of
// the closed graph, roads and world edges alike.
func compareStores(t *testing.T, ref, got *core.Store, w *roadnet.World, probes []float64) {
	t.Helper()
	if ref.NumEvents() != got.NumEvents() {
		t.Fatalf("event counts: ref %d, got %d", ref.NumEvents(), got.NumEvents())
	}
	for road := 0; road < w.NumTrackedEdges(); road++ {
		_, toward := w.TrackedEnds(planar.EdgeID(road))
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
			if a, b := ref.CutFlow(cut, t1, t2), got.CutFlow(cut, t1, t2); a != b {
				t.Fatalf("road %d CutFlow(%v,%v): %v vs %v", road, t1, t2, a, b)
			}
			rb, ra := ref.StaticSteps(cut, t1, t2, nil)
			gb, ga := got.StaticSteps(cut, t1, t2, nil)
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
// anchor: across random seal points / thresholds, a store sealed mid-stream answers everything
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
	for variant := int64(0); variant < 2; variant++ {
		for iter := 0; iter < 4; iter++ {
			rng := rand.New(rand.NewSource(int64(100*iter) + variant))
			ref := core.NewStore(w)
			sealed := core.NewStore(w)
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
				t.Fatalf("variant %d iter %d: no events were sealed; test is vacuous", variant, iter)
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
	sealed := core.NewStore(w)
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
	if got := restored.Memory(); got.SealedEvents != mem.SealedEvents || got.Runs != mem.Runs {
		t.Fatalf("restored sealed tier: %d events / %d runs, want %d / %d",
			got.SealedEvents, got.Runs, mem.SealedEvents, mem.Runs)
	}
}

// TestGatewayHistorySealed: gateway history is history. World edges are
// tracked edges, so with tiering on SealColdPrefixes seals their Enter
// and Leave directions like any road's — here at least two blocks of
// each at every gateway — the store shrinks at the seal, every count is
// == before and after it, and a snapshot carries the sealed world edges
// into a restored store that answers the same.
func TestGatewayHistorySealed(t *testing.T) {
	w, wl := shardWorld(t, 71)
	rng := rand.New(rand.NewSource(73))
	ref, sealed := core.NewStore(w), core.NewStore(w)
	if err := sealed.SetHistoryConfig(core.HistoryConfig{Tick: 1, HotKeep: 16, SealThreshold: 64}); err != nil {
		t.Fatal(err)
	}
	// The generated traffic, floored to the tick grid, and after it on
	// every gateway a long skewed stream of entries and of exits.
	events := toCoreEvents(t, wl)
	start := 0.0
	for i := range events {
		events[i].T = math.Floor(events[i].T)
		start = math.Max(start, events[i].T)
	}
	horizon := start
	for _, g := range w.Gateways {
		for _, mk := range []func(planar.NodeID, float64) core.Event{core.EnterEvent, core.LeaveEvent} {
			tm := start
			for i := 0; i < 2*128+64+1+rng.Intn(100); i++ {
				tm += float64(rng.Intn(40) * rng.Intn(40))
				events = append(events, mk(g, tm))
			}
			horizon = math.Max(horizon, tm)
		}
	}
	for _, st := range []*core.Store{ref, sealed} {
		if err := st.RecordBatch(events); err != nil {
			t.Fatal(err)
		}
	}
	b := w.Bounds()
	var regions []*core.Region
	for _, f := range [][4]float64{{0, 0, 1, 1}, {0, 0, 0.5, 1}, {0.4, 0, 0.6, 0.6}} {
		r, err := core.NewRegion(w, w.JunctionsIn(geom.RectWH(b.Min.X+f[0]*b.Width()-1, b.Min.Y+f[1]*b.Height()-1, f[2]*b.Width()+2, f[3]*b.Height()+2)))
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	probes := sealProbes(horizon)
	answers := func(st *core.Store) []float64 {
		var out []float64
		for _, r := range regions {
			for i := 0; i+1 < len(probes); i++ {
				out = append(out, core.SnapshotCount(st, r, probes[i]),
					core.TransientCount(st, r, probes[i], probes[i+1]),
					core.StaticCount(st, r, probes[i], probes[i+1]))
			}
		}
		return out
	}
	before, beforeBytes := answers(sealed), sealed.Memory().TotalBytes()

	stats := sealed.SealColdPrefixes()
	for _, g := range w.Gateways {
		tr := sealed.RoadTracker(w.WorldEdge(g))
		if in, out := tr.SealedLen(true), tr.SealedLen(false); in < 2*128 || out < 2*128 {
			t.Fatalf("gateway %d: %d Enter and %d Leave events sealed, want two blocks of each", g, in, out)
		}
	}
	if stats.Roads < len(w.Gateways) || stats.LossyFallbacks != 0 {
		t.Fatalf("seal pass republished %d edges with %d lossy fallbacks, want ≥ %d gateways and none", stats.Roads, stats.LossyFallbacks, len(w.Gateways))
	}
	if after := sealed.Memory().TotalBytes(); after >= beforeBytes {
		t.Fatalf("Memory().TotalBytes() %d → %d at the seal, want a fall", beforeBytes, after)
	}
	compareStores(t, ref, sealed, w, probes)
	if after := answers(sealed); !slices.Equal(before, after) || !slices.Equal(after, answers(ref)) {
		t.Fatal("region counts moved at the seal")
	}

	restored := core.NewStore(w)
	if err := restored.RestoreSnapshot(sealed.ExportSnapshot()); err != nil {
		t.Fatal(err)
	}
	compareStores(t, sealed, restored, w, probes)
	if got := answers(restored); !slices.Equal(got, before) {
		t.Fatal("region counts moved across ExportSnapshot → RestoreSnapshot")
	}
	if got, want := restored.Memory(), sealed.Memory(); got.SealedEvents != want.SealedEvents || got.Runs != want.Runs {
		t.Fatalf("restored sealed tier: %d events / %d runs, want %d / %d", got.SealedEvents, got.Runs, want.SealedEvents, want.Runs)
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
				sealed.CutFlow([]core.CutRoad{{Road: road, Inside: e.V}}, t1, t2)
				sealed.StaticSteps([]core.CutRoad{{Road: road, Inside: e.V}}, t1, t2, nil)
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
	for p := 0; p < workers; p++ {
		if err := ref.RecordBatch(parts[p]); err != nil {
			t.Fatalf("ref ingest: %v", err)
		}
	}
	horizon := ref.Clock()
	compareStores(t, ref, sealed, w, sealProbes(horizon))
}

// TestEventsNotAliased is the regression test for the Tracker.Events
// aliasing audit, on a road and on a world edge: the returned slices
// must be copies, so callers can neither corrupt the store by writing
// through them nor observe later appends.
func TestEventsNotAliased(t *testing.T) {
	w, _ := shardWorld(t, 59)
	if len(w.Gateways) == 0 {
		t.Fatal("world has no gateways")
	}
	g := w.Gateways[0]
	road := planar.EdgeID(0)
	from, _ := w.TrackedEnds(road)
	for _, tc := range []struct {
		name  string
		edge  planar.EdgeID
		event func(tm float64) core.Event
	}{
		{"road", road, func(tm float64) core.Event { return core.MoveEvent(road, from, tm) }},
		{"world edge", w.WorldEdge(g), func(tm float64) core.Event { return core.EnterEvent(g, tm) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := core.NewStore(w)
			_, head := w.TrackedEnds(tc.edge)
			record := func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if err := s.RecordBatch([]core.Event{tc.event(float64(i + 1))}); err != nil {
						t.Fatalf("RecordBatch: %v", err)
					}
				}
			}
			record(0, 10)
			tr := s.RoadTracker(tc.edge)
			got := tr.Events(true)
			if len(got) != 10 {
				t.Fatalf("Events returned %d timestamps, want 10", len(got))
			}
			// Writing through the returned slice must not corrupt the store.
			for i := range got {
				got[i] = -999
			}
			if c := s.RoadCrossings(tc.edge, head, 100); c != 10 {
				t.Fatalf("store corrupted through Events result: count %v, want 10", c)
			}
			// Later appends must not leak into a previously returned slice.
			trBefore := s.RoadTracker(tc.edge)
			before := trBefore.Events(true)
			record(10, 20)
			if len(before) != 10 {
				t.Fatalf("earlier Events slice grew to %d", len(before))
			}
			for i := range before {
				if before[i] != float64(i+1) {
					t.Fatalf("earlier Events slice mutated at %d: %v", i, before[i])
				}
			}
		})
	}
}
