package stq

// Serving-layer tests of the query-plan cache epoch contract and the
// memoized-plan invalidation rules: configuration changes (placement,
// cache capacity) must drop every compiled plan, while ingestion must
// not.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/mobility"
)

// TestPlacementChangeInvalidatesMemoizedPlans is the regression test
// for memoized Region.CutRoads / plan reuse across placement changes:
// answers after PlaceSensors / ClearPlacement must be bit-identical to
// a fresh system that never held a warm cache or memoized region.
// newTestSystem is fully seeded, so fresh systems are bit-identical
// reference paths.
func TestPlacementChangeInvalidatesMemoizedPlans(t *testing.T) {
	sys, wl := newTestSystem(t)
	q := Query{Rect: centered(sys, 0.5), T1: wl.Horizon * 0.3, T2: wl.Horizon * 0.7, Kind: Transient}
	ask := func(s *System) *Response {
		t.Helper()
		resp, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	check := func(stage string, got, want *Response) {
		t.Helper()
		if got.Count != want.Count || got.Missed != want.Missed ||
			got.RegionFaces != want.RegionFaces || got.EdgesAccessed != want.EdgesAccessed ||
			got.NodesAccessed != want.NodesAccessed || got.Messages != want.Messages {
			t.Fatalf("%s: got %+v, want %+v", stage, got, want)
		}
	}

	// Warm the unsampled cache, then change placement and compare every
	// stage against a cold reference system in the same configuration.
	first := ask(sys)
	ref, _ := newTestSystem(t)
	check("unsampled warm vs cold reference", first, ask(ref))

	if err := sys.PlaceSensors(PlacementQuadTree, 48, 5); err != nil {
		t.Fatal(err)
	}
	refPlaced, _ := newTestSystem(t)
	if err := refPlaced.PlaceSensors(PlacementQuadTree, 48, 5); err != nil {
		t.Fatal(err)
	}
	check("after PlaceSensors", ask(sys), ask(refPlaced))

	if err := sys.PlaceSensorsForQueries([]Rect{q.Rect}, 32); err != nil {
		t.Fatal(err)
	}
	refSub, _ := newTestSystem(t)
	if err := refSub.PlaceSensorsForQueries([]Rect{q.Rect}, 32); err != nil {
		t.Fatal(err)
	}
	check("after PlaceSensorsForQueries", ask(sys), ask(refSub))

	sys.ClearPlacement()
	check("after ClearPlacement", ask(sys), first)
}

// TestIngestPreservesPlanCache pins the tentpole eviction rule: Ingest
// with exact forms neither republishes the serving engine nor drops the
// plan cache, while every topology-affecting change does.
func TestIngestPreservesPlanCache(t *testing.T) {
	sys, wl := newTestSystem(t)
	q := Query{Rect: centered(sys, 0.5), T1: wl.Horizon * 0.3, T2: wl.Horizon * 0.7, Kind: Transient}
	if _, err := sys.Query(q); err != nil {
		t.Fatal(err)
	}
	epoch0 := sys.ServingEpoch()
	s0 := sys.PlanCacheStats()
	if !s0.Enabled || s0.Misses == 0 {
		t.Fatalf("cache stats after first query: %+v", s0)
	}

	// Exact-form ingestion: same epoch, same cache, and the next query
	// both hits the cache and sees the new events.
	g := sys.Gateways()[0]
	more := &Workload{W: sys.World(), Events: []mobility.Event{
		{Kind: mobility.Enter, At: g, T: wl.Horizon + 10},
	}, Horizon: wl.Horizon + 10}
	if err := sys.Ingest(more); err != nil {
		t.Fatal(err)
	}
	if sys.ServingEpoch() != epoch0 {
		t.Fatalf("exact-form Ingest republished the engine: epoch %d -> %d", epoch0, sys.ServingEpoch())
	}
	if _, err := sys.Query(q); err != nil {
		t.Fatal(err)
	}
	if s := sys.PlanCacheStats(); s.Hits != s0.Hits+1 {
		t.Fatalf("query after Ingest missed the cache: before %+v after %+v", s0, s)
	}

	// Topology-affecting changes rebuild: epoch advances, counters reset.
	sys.ClearPlacement()
	if sys.ServingEpoch() == epoch0 {
		t.Fatal("ClearPlacement did not republish")
	}
	if s := sys.PlanCacheStats(); s.Hits != 0 || s.Entries != 0 {
		t.Fatalf("ClearPlacement kept a stale cache: %+v", s)
	}

	if _, err := sys.Query(q); err != nil {
		t.Fatal(err)
	}
	if err := sys.PlaceSensors(PlacementQuadTree, 32, 5); err != nil {
		t.Fatal(err)
	}
	if s := sys.PlanCacheStats(); s.Entries != 0 {
		t.Fatalf("PlaceSensors kept a stale cache: %+v", s)
	}
	sys.ClearPlacement()

	// Disabling the cache sticks across rebuilds.
	sys.SetPlanCacheCapacity(0)
	if _, err := sys.Query(q); err != nil {
		t.Fatal(err)
	}
	if err := sys.PlaceSensors(PlacementQuadTree, 32, 5); err != nil {
		t.Fatal(err)
	}
	if s := sys.PlanCacheStats(); s.Enabled {
		t.Fatalf("cache re-enabled by rebuild: %+v", s)
	}
}

// TestIngestOrderingRoundTrip pins what is left of the ordering toggle:
// SetIngestOrdering returns nil and changes nothing, so on either side
// of it a gateway's entries must be monotone while its exits may go back
// in time behind them.
func TestIngestOrderingRoundTrip(t *testing.T) {
	sys, wl := newTestSystem(t)
	g, h := sys.Gateways()[0], wl.Horizon
	for i, tm := range []float64{h + 1, h + 2} {
		if i == 1 {
			if err := sys.SetIngestOrdering(OrderPerEdge); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.RecordEnter(g, tm); err != nil {
			t.Fatal(err)
		}
		if err := sys.RecordEnter(g, tm-0.5); err == nil {
			t.Fatal("an entry behind the last entry was accepted")
		}
		if err := sys.RecordLeave(g, h+0.25*float64(i+1)); err != nil {
			t.Fatalf("an exit behind the last entry was refused: %v", err)
		}
	}
}

// TestPlanCacheConcurrentChurn streams cold rects (eight times the
// capacity in all, distinct within each goroutine) through one sampled
// System from eight goroutines while another rebuilds its serving engine
// through PlaceSensors — the only way a plan cache is emptied — with the
// same placement each time: every answer must equal a cache-less
// system's, no cache ever holds more than its capacity, and the serving
// epoch advances. Run with -race.
func TestPlanCacheConcurrentChurn(t *testing.T) {
	const (
		capacity = 16
		workers  = 8
		each     = 4 * capacity
	)
	sys, wl := newTestSystem(t)
	plain, _ := newTestSystem(t)
	place := func(s *System) {
		t.Helper()
		if err := s.PlaceSensors(PlacementQuadTree, 48, 9); err != nil {
			t.Error(err)
		}
	}
	place(sys)
	place(plain)
	sys.SetPlanCacheCapacity(capacity)
	plain.SetPlanCacheCapacity(0)
	rng := rand.New(rand.NewSource(43))
	b := sys.Bounds()
	queries := make([]Query, 2*each) // neighbouring workers overlap by half
	want := make([]*Response, len(queries))
	for i := range queries {
		fw, fh := b.Width()*(0.2+rng.Float64()*0.5), b.Height()*(0.2+rng.Float64()*0.5)
		x, y := b.Min.X+rng.Float64()*(b.Width()-fw), b.Min.Y+rng.Float64()*(b.Height()-fh)
		queries[i] = Query{
			Rect: Rect{Min: Point{X: x, Y: y}, Max: Point{X: x + fw, Y: y + fh}},
			T1:   wl.Horizon * 0.3, T2: wl.Horizon * 0.7, Kind: Kind(i % 3), Bound: Bound(i % 2),
		}
		var err error
		if want[i], err = plain.Query(queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	epoch0 := sys.ServingEpoch()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				i := (g*each/2 + k) % len(queries)
				got, err := sys.Query(queries[i])
				if err != nil {
					t.Error(err)
					return
				}
				if *got != *want[i] {
					t.Errorf("worker %d query %d: got %+v, cache-less system %+v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		place(sys)
		if st := sys.PlanCacheStats(); st.Entries > st.Capacity {
			t.Fatalf("%d entries in a cache of %d", st.Entries, st.Capacity)
		}
		runtime.Gosched()
	}
	if sys.ServingEpoch() <= epoch0 {
		t.Fatalf("serving epoch %d did not advance past %d", sys.ServingEpoch(), epoch0)
	}
}
