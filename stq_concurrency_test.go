package stq

// Regression tests for the serving-path concurrency contract, meant to
// run under the race detector (`go test -race`, wired into make check
// and CI). The headline regression: configuration calls used to
// reassign s.engine unsynchronized while concurrent Query calls read it
// — a data race the atomic servingState publication fixes. These tests
// fail under -race on the pre-fix code.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mobility"
)

// queryWorkers runs n goroutines issuing queries until stop is closed,
// failing the test on unexpected errors.
func queryWorkers(t *testing.T, sys *System, horizon float64, n int, stop chan struct{}, wg *sync.WaitGroup) {
	t.Helper()
	rect := centered(sys, 0.5)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(kind Kind) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sys.Query(Query{
					Rect: rect, T1: horizon * 0.3, T2: horizon * 0.7, Kind: kind,
				}); err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
			}
		}(Kind(w % 3))
	}
}

// TestConcurrentQueryIngest is the engine-swap regression: queries race
// Ingest and engine republications — placement toggles, which swap the
// engine between the sampled and the full sensing graph, and plan-cache
// capacity changes. Before the fix, rebuild() wrote s.engine while
// Query read it — detected by -race.
func TestConcurrentQueryIngest(t *testing.T) {
	sys, wl := newTestSystem(t)
	if err := sys.PlaceSensors(PlacementQuadTree, 32, 5); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var qwg, mwg sync.WaitGroup
	queryWorkers(t, sys, wl.Horizon, 4, stop, &qwg)

	// Mutation workers: empty-workload Ingest (runs the ingest path
	// without advancing the store clock), placement toggling and
	// plan-cache resizing (each republishes the engine under the
	// queries).
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		for i := 0; i < 40; i++ {
			if err := sys.Ingest(&mobility.Workload{W: sys.World()}); err != nil {
				t.Errorf("concurrent ingest: %v", err)
				return
			}
		}
	}()
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		for i := 0; i < 20; i++ {
			sys.ClearPlacement()
			if err := sys.PlaceSensors(PlacementQuadTree, 32, 5); err != nil {
				t.Errorf("concurrent placement: %v", err)
				return
			}
			sys.SetPlanCacheCapacity(i % 3 * 64)
		}
	}()
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		for i := 0; i < 40; i++ {
			_ = sys.StorageBytes()
			_ = sys.PrivacyBudgetRemaining()
		}
	}()

	// Query workers spin for the whole mutation phase, then wind down.
	mwg.Wait()
	close(stop)
	qwg.Wait()
}

// TestConcurrentQueryRecordBatchPlacement stresses Query against
// high-throughput batch ingestion and engine swaps: RecordBatch
// advances the store while ClearPlacement/PlaceSensors republish
// engines between the full and the sampled sensing graph.
func TestConcurrentQueryRecordBatchPlacement(t *testing.T) {
	sys, wl := newTestSystem(t)
	if err := sys.PlaceSensors(PlacementQuadTree, 32, 5); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var qwg, mwg sync.WaitGroup
	queryWorkers(t, sys, wl.Horizon, 2, stop, &qwg)

	// Batch-ingestion worker: time-ordered batches strictly after the
	// generated horizon, so the store clock only advances.
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		road := EdgeID(0)
		from := sys.World().Star.Edge(road).U
		var clock atomic.Uint64
		for i := 0; i < 30; i++ {
			base := wl.Horizon + float64(clock.Add(16))
			events := make([]Event, 0, 16)
			for j := 0; j < 16; j++ {
				events = append(events, MoveEvent(road, from, base+float64(j)/16))
			}
			if err := sys.RecordBatch(events); err != nil {
				t.Errorf("concurrent RecordBatch: %v", err)
				return
			}
		}
	}()

	// Placement toggling worker: every Clear/Place republishes a fresh
	// engine; in-flight queries keep their loaded engine.
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		for i := 0; i < 25; i++ {
			sys.ClearPlacement()
			if err := sys.PlaceSensors(PlacementQuadTree, 32, 5); err != nil {
				t.Errorf("concurrent PlaceSensors: %v", err)
				return
			}
		}
	}()

	mwg.Wait()
	close(stop)
	qwg.Wait()
}

// TestConcurrentPlanCacheChurn hammers the plan cache from every angle
// at once: query workers cycling a small rect pool (so cache hits are
// the common case), sharded batch ingestion advancing the store, and
// mutators that churn placement and the cache capacity —
// each an epoch boundary that swaps the engine and drops every compiled
// plan while hits are being served from the old one.
func TestConcurrentPlanCacheChurn(t *testing.T) {
	sys, wl := newTestSystem(t)
	stop := make(chan struct{})
	var qwg, mwg sync.WaitGroup

	// Query workers over a shared 3-rect pool: repeats force cache hits.
	pool := []Rect{centered(sys, 0.3), centered(sys, 0.5), centered(sys, 0.7)}
	for w := 0; w < 3; w++ {
		qwg.Add(1)
		go func(w int) {
			defer qwg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sys.Query(Query{
					Rect: pool[(w+i)%len(pool)],
					T1:   wl.Horizon * 0.3, T2: wl.Horizon * 0.7,
					Kind: Kind(i % 3),
				}); err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
				_ = sys.PlanCacheStats()
			}
		}(w)
	}

	// Batch-ingestion worker, post-horizon and time-ordered.
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		road := EdgeID(0)
		from := sys.World().Star.Edge(road).U
		for i := 0; i < 25; i++ {
			base := wl.Horizon + float64(i+1)*16
			events := make([]Event, 0, 16)
			for j := 0; j < 16; j++ {
				events = append(events, MoveEvent(road, from, base+float64(j)/16))
			}
			if err := sys.RecordBatch(events); err != nil {
				t.Errorf("concurrent RecordBatch: %v", err)
				return
			}
		}
	}()

	// Placement churn: each call republishes the engine with a fresh
	// (empty) plan cache while queries hold the old engine.
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		for i := 0; i < 15; i++ {
			if err := sys.PlaceSensors(PlacementQuadTree, 32, int64(i)); err != nil {
				t.Errorf("concurrent PlaceSensors: %v", err)
				return
			}
			sys.ClearPlacement()
		}
	}()

	// Cache-capacity flips (0 disables, then re-enable).
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		for i := 0; i < 10; i++ {
			sys.SetPlanCacheCapacity(0)
			sys.SetPlanCacheCapacity(64)
		}
	}()

	mwg.Wait()
	close(stop)
	qwg.Wait()

	if epoch := sys.ServingEpoch(); epoch == 0 {
		t.Error("serving epoch never advanced under churn")
	}
}

// TestIngestVisibleToSubsequentQueries checks publication semantics:
// events ingested concurrently become visible to queries after
// RecordBatch returns (the store is shared; no engine republish is
// needed for exact counters).
func TestIngestVisibleToSubsequentQueries(t *testing.T) {
	sys, wl := newTestSystem(t)
	rect := sys.Bounds() // whole world
	before, err := sys.Query(Query{Rect: rect, T1: wl.Horizon, T2: wl.Horizon + 1000, Kind: Transient})
	if err != nil {
		t.Fatal(err)
	}
	// Push a crossing over a perimeter road of the whole-world region:
	// use a world entry at a gateway, which changes the transient count.
	g := sys.Gateways()[0]
	if err := sys.RecordBatch([]Event{EnterEvent(g, wl.Horizon+500)}); err != nil {
		t.Fatal(err)
	}
	after, err := sys.Query(Query{Rect: rect, T1: wl.Horizon, T2: wl.Horizon + 1000, Kind: Transient})
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != before.Count+1 {
		t.Errorf("transient count after gateway entry = %v, want %v", after.Count, before.Count+1)
	}
}

// TestIngestNeverWaitsOnConfiguration: every engine reads the live exact
// store, so no ingest path takes the configuration mutex. With s.mu held
// — as by a slow configuration call — Ingest, RecordBatch and a cell's
// numbered apply must still return, on a plain, a durable and a
// 4-partition system.
func TestIngestNeverWaitsOnConfiguration(t *testing.T) {
	ref, wl := newTestSystem(t)
	w := ref.World()
	g, h := ref.Gateways()[0], wl.Horizon
	plain := NewSystem(w)
	durable, err := OpenDurable(w, Durability{Dir: t.TempDir(), Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	parted, err := NewPartitionedSystem(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sys  *System
	}{{"plain", plain}, {"durable", durable}, {"4-partition", parted}} {
		sys := c.sys
		sys.mu.Lock()
		done := make(chan error, 1)
		go func() {
			err := sys.Ingest(wl)
			if err == nil {
				err = sys.RecordBatch([]Event{EnterEvent(g, h+1)})
			}
			if err == nil {
				_, err = sys.recordSeq(1, []Event{EnterEvent(g, h+2)}, func() error { return nil })
			}
			done <- err
		}()
		select {
		case err := <-done:
			sys.mu.Unlock()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		case <-time.After(10 * time.Second):
			sys.mu.Unlock()
			<-done
			t.Fatalf("%s: ingestion waited on the configuration mutex", c.name)
		}
		if got, want := sys.st.NumEvents(), len(wl.Events)+2; got != want {
			t.Errorf("%s: %d events stored, want %d", c.name, got, want)
		}
	}
}
