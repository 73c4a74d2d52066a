package query

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// poolRects returns n distinct query rectangles over the fixture world.
func poolRects(fx *fixture, n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	b := fx.w.Bounds()
	rects := make([]geom.Rect, 0, n)
	for i := 0; i < n; i++ {
		frac := 0.2 + rng.Float64()*0.5
		w, h := b.Width()*frac, b.Height()*frac
		x := b.Min.X + rng.Float64()*(b.Width()-w)
		y := b.Min.Y + rng.Float64()*(b.Height()-h)
		rects = append(rects, geom.RectWH(x, y, w, h))
	}
	return rects
}

// TestPlanCacheHitBitIdentical is the plan-cache correctness anchor: a
// cache hit must return bit-identical responses — count, missed
// verdict, region size, edges accessed, and collection cost — to both
// the cold query that compiled the plan and to an engine with caching
// disabled.
func TestPlanCacheHitBitIdentical(t *testing.T) {
	fx := newFixture(t, 3)
	for _, sampledEng := range []bool{false, true} {
		var cached, uncached *Engine
		if sampledEng {
			cached = fx.sampledEngine(t, 48, 9)
			uncached = fx.sampledEngine(t, 48, 9)
		} else {
			cached = NewEngine(fx.w, fx.st)
			uncached = NewEngine(fx.w, fx.st)
		}
		uncached.SetPlanCacheCapacity(0)
		if uncached.PlanCacheStats().Enabled {
			t.Fatal("capacity 0 did not disable the cache")
		}
		rects := poolRects(fx, 12, 21)
		run := func(e *Engine, rect geom.Rect, kind Kind) *Response {
			t.Helper()
			resp, err := e.Query(Request{
				Rect: rect, T1: fx.wl.Horizon * 0.3, T2: fx.wl.Horizon * 0.7, Kind: kind,
			})
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		for i, rect := range rects {
			kind := Kind(i % 3)
			cold := run(cached, rect, kind)
			hit := run(cached, rect, kind)
			plain := run(uncached, rect, kind)
			for name, r := range map[string]*Response{"hit": hit, "uncached": plain} {
				if r.Count != cold.Count || r.Missed != cold.Missed {
					t.Fatalf("sampled=%v rect %d: %s count %v/%v, cold %v/%v",
						sampledEng, i, name, r.Count, r.Missed, cold.Count, cold.Missed)
				}
				if r.ExactRegionSize != cold.ExactRegionSize || r.EdgesAccessed != cold.EdgesAccessed {
					t.Fatalf("sampled=%v rect %d: %s region %d/%d, cold %d/%d",
						sampledEng, i, name, r.ExactRegionSize, r.EdgesAccessed, cold.ExactRegionSize, cold.EdgesAccessed)
				}
				if r.Net != cold.Net {
					t.Fatalf("sampled=%v rect %d: %s net %+v, cold %+v", sampledEng, i, name, r.Net, cold.Net)
				}
			}
		}
		stats := cached.PlanCacheStats()
		if !stats.Enabled || stats.Hits == 0 || stats.Misses == 0 {
			t.Fatalf("cache stats after warm run: %+v", stats)
		}
		if stats.Entries > stats.Capacity {
			t.Fatalf("entries %d exceed capacity %d", stats.Entries, stats.Capacity)
		}
	}
}

// TestPlanCacheServesFreshCounts pins the "plans are spatial, counts
// are live" contract: a cache hit must integrate the live store, so
// events ingested after the plan compiled show up in the next answer
// without any invalidation.
func TestPlanCacheServesFreshCounts(t *testing.T) {
	fx := newFixture(t, 5)
	e := NewEngine(fx.w, fx.st)
	rect := fx.w.Bounds()
	t1, t2 := fx.wl.Horizon, fx.wl.Horizon+1000
	req := Request{Rect: rect, T1: t1, T2: t2, Kind: Transient}
	before, err := e.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	g := fx.w.Gateways[0]
	if err := fx.st.RecordEnter(g, fx.wl.Horizon+500); err != nil {
		t.Fatal(err)
	}
	after, err := e.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != before.Count+1 {
		t.Fatalf("transient after ingest = %v, want %v", after.Count, before.Count+1)
	}
	stats := e.PlanCacheStats()
	if stats.Hits == 0 {
		t.Fatalf("second query did not hit the cache: %+v", stats)
	}
}

// TestPlanCacheEviction checks the FIFO capacity bound: with capacity 2
// and three distinct plans the oldest is evicted, and re-asking it
// recompiles a correct plan.
func TestPlanCacheEviction(t *testing.T) {
	fx := newFixture(t, 7)
	e := NewEngine(fx.w, fx.st)
	e.SetPlanCacheCapacity(2)
	rects := poolRects(fx, 3, 31)
	answers := make([]float64, len(rects))
	for i, rect := range rects {
		resp, err := e.Query(Request{Rect: rect, T1: fx.wl.Horizon / 2, Kind: Snapshot})
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = resp.Count
	}
	stats := e.PlanCacheStats()
	if stats.Entries != 2 || stats.Evictions != 1 {
		t.Fatalf("after 3 inserts at capacity 2: %+v", stats)
	}
	// The first plan was evicted; re-asking recompiles and stays correct.
	resp, err := e.Query(Request{Rect: rects[0], T1: fx.wl.Horizon / 2, Kind: Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != answers[0] {
		t.Fatalf("recompiled plan count = %v, want %v", resp.Count, answers[0])
	}
	if got := e.PlanCacheStats(); got.Evictions != 2 {
		t.Fatalf("re-insert did not evict FIFO victim: %+v", got)
	}
}

// TestPlanCacheMemoizedRegionSingleScan confirms the compiled plan
// reuses the memoized perimeter: repeated queries of one rect leave the
// region at exactly one perimeter scan.
func TestPlanCacheMemoizedRegionSingleScan(t *testing.T) {
	fx := newFixture(t, 13)
	e := NewEngine(fx.w, fx.st)
	rect := centerRect(fx.w, 0.5)
	var region *core.Region
	for i := 0; i < 5; i++ {
		resp, err := e.Query(Request{Rect: rect, T1: fx.wl.Horizon / 2, Kind: Snapshot})
		if err != nil {
			t.Fatal(err)
		}
		if region == nil {
			region = resp.Region
		} else if resp.Region != region {
			t.Fatal("cache hit returned a different region object")
		}
	}
	if scans := region.PerimeterScans(); scans != 1 {
		t.Fatalf("perimeter scans = %d, want 1", scans)
	}
}

// TestPlanCacheFIFOWorkingSet pins the guarantee FIFO eviction gives and
// a direct-mapped table would not: a working set of exactly capacity
// keys never evicts however it is cycled, and one key more than
// capacity, cycled in order, misses on every lookup while the table
// stays full.
func TestPlanCacheFIFOWorkingSet(t *testing.T) {
	const c = 8
	fx := newFixture(t, 7)
	rects := poolRects(fx, c+1, 37)
	ask := func(e *Engine, rect geom.Rect) {
		t.Helper()
		if _, err := e.Query(Request{Rect: rect, T1: fx.wl.Horizon / 2, Kind: Snapshot}); err != nil {
			t.Fatal(err)
		}
	}
	e := fx.sampledEngine(t, 48, 9)
	e.SetPlanCacheCapacity(c)
	for lap := 0; lap < 3; lap++ {
		for _, rect := range rects[:c] {
			ask(e, rect)
		}
	}
	if st := e.PlanCacheStats(); st.Evictions != 0 || st.Hits != 2*c || st.Misses != c || st.Entries != c {
		t.Fatalf("working set == capacity, three laps: %+v", st)
	}
	e.SetPlanCacheCapacity(c)
	for lap := 0; lap < 3; lap++ {
		for i, rect := range rects {
			ask(e, rect)
			want := c
			if lap == 0 && i < c {
				want = i + 1
			}
			if st := e.PlanCacheStats(); st.Entries != want {
				t.Fatalf("lap %d key %d: %d entries, want %d", lap, i, st.Entries, want)
			}
		}
	}
	if st := e.PlanCacheStats(); st.Hits != 0 || st.Misses != 3*(c+1) || st.Evictions != 3*(c+1)-c {
		t.Fatalf("working set == capacity+1, three laps: %+v", st)
	}
}
