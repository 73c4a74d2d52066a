package stq

// Serving-layer tests of the query-plan cache epoch contract and the
// memoized-plan invalidation rules: configuration changes (placement,
// faults) must drop every compiled plan, while ingestion must not.

import (
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

	if err := sys.ApplyFaults(FaultSpec{Seed: 11, SensorCrash: 0.1}); err != nil {
		t.Fatal(err)
	}
	if s := sys.PlanCacheStats(); s.Entries != 0 {
		t.Fatalf("ApplyFaults kept a stale cache: %+v", s)
	}
	sys.ClearFaults()

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
