package query

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/roadnet"
	"repro/internal/sampled"
	"repro/internal/sampling"
)

// planSums folds a stream of responses into the integers
// TestCompiledPlansPinned pins.
type planSums struct {
	RegionFaces, ExactRegionSize, EdgesAccessed int
	Nodes, Messages, Hops, TotalHops, Missed    int
	Count                                       float64
	// JunctionHash covers every region's junction set (sorted: the parent
	// emitted it in map order); CutHash covers every CutRoads slice in
	// the order the engine integrates it.
	JunctionHash, CutHash uint64
}

// runPinned sends rects through e (kinds cycling, one bound) and folds
// the answers.
func runPinned(t *testing.T, fx *fixture, e *Engine, rects []geom.Rect, bound sampled.Bound) planSums {
	t.Helper()
	var s planSums
	jh, ch := fnv.New64a(), fnv.New64a()
	for i := range rects {
		req := coldRequest(fx, rects, i)
		req.Bound = bound
		resp, err := e.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		s.RegionFaces += resp.Region.Size()
		s.ExactRegionSize += resp.ExactRegionSize
		s.EdgesAccessed += resp.EdgesAccessed
		s.Nodes += resp.Net.NodesAccessed
		s.Messages += resp.Net.Messages
		s.Hops += resp.Net.Hops
		s.TotalHops += resp.Net.TotalHops
		s.Count += resp.Count
		if resp.Missed {
			s.Missed++
		}
		js := slices.Clone(resp.Region.Junctions())
		slices.Sort(js)
		fmt.Fprint(jh, js, ";")
		fmt.Fprint(ch, resp.Region.CutRoads(), ";")
	}
	s.JunctionHash, s.CutHash = jh.Sum64(), ch.Sum64()
	return s
}

// TestCompiledPlansPinned pins what the compile pipeline (a sampled
// engine: ApproximateRect → PerimeterSensors → Route; the unsampled one:
// JunctionsIn → NewRegion → Flood) produces to recorded values: the
// first three at commit 045d7a9, before its maps became dense scratch,
// the bench/* ones at commit 5c80267, before plans were compiled per
// face of G̃. The bench/* cases are engine_cold's own shape: its 16×16
// world under a QuadTree placement of 64 sensors, triangulated and 3-NN.
// The benchmark harness's oracle compiles with the same code as the
// system under test, so a drift in the region or the cost model is only
// visible against recorded numbers.
func TestCompiledPlansPinned(t *testing.T) {
	fx := newFixture(t, 7)
	rects := poolRects(fx, 256, 71)
	bx := newBenchFixture(t)
	benchRects := poolRects(bx, 256, 71)
	want := map[string]planSums{
		"sampled/lower":   {RegionFaces: 5316, ExactRegionSize: 6803, EdgesAccessed: 4939, Nodes: 5007, Messages: 10126, Hops: 628, TotalHops: 5063, Missed: 2, Count: 1292, JunctionHash: 0x1be602d50e7cfdc0, CutHash: 0xf5532e127c7ffc0d},
		"sampled/upper":   {RegionFaces: 10701, ExactRegionSize: 6803, EdgesAccessed: 6720, Nodes: 6923, Messages: 14008, Hops: 691, TotalHops: 7004, Count: 2634, JunctionHash: 0xc05e630ebb13c4b3, CutHash: 0x47b3b004014996ea},
		"unsampled":       {RegionFaces: 1615, ExactRegionSize: 1615, EdgesAccessed: 1268, Nodes: 2014, Messages: 9250, Hops: 418, TotalHops: 418, Count: 351, JunctionHash: 0x2b5b5f0b00073e87, CutHash: 0xa3acd471b2fad935},
		"bench/lower":     {RegionFaces: 10294, ExactRegionSize: 12646, EdgesAccessed: 7362, Nodes: 7617, Messages: 15844, Hops: 921, TotalHops: 7922, Count: 1401, JunctionHash: 0x8cad27b5dfe7876b, CutHash: 0xd1f71ef8e28213ad},
		"bench/upper":     {RegionFaces: 19441, ExactRegionSize: 12646, EdgesAccessed: 10248, Nodes: 10648, Messages: 21974, Hops: 947, TotalHops: 10987, Count: 2940, JunctionHash: 0x19056e1880cf896f, CutHash: 0x96afe91be269bd},
		"bench/knn/lower": {RegionFaces: 6449, ExactRegionSize: 12646, EdgesAccessed: 6298, Nodes: 6536, Messages: 13844, Hops: 934, TotalHops: 6922, Missed: 6, Count: 930, JunctionHash: 0x7fb45de2876b4cbe, CutHash: 0xdc5c65ce98e67588},
	}
	sampledEng := fx.sampledEngine(t, 48, 9)
	benchEng := bx.quadTreeEngine(t, sampled.Options{Connect: sampled.Triangulation})
	got := map[string]planSums{
		"sampled/lower":   runPinned(t, fx, sampledEng, rects, sampled.Lower),
		"sampled/upper":   runPinned(t, fx, sampledEng, rects, sampled.Upper),
		"unsampled":       runPinned(t, fx, NewEngine(fx.w, fx.st), rects[:64], sampled.Lower),
		"bench/lower":     runPinned(t, bx, benchEng, benchRects, sampled.Lower),
		"bench/upper":     runPinned(t, bx, benchEng, benchRects, sampled.Upper),
		"bench/knn/lower": runPinned(t, bx, bx.quadTreeEngine(t, sampled.Options{Connect: sampled.KNN, K: 3}), benchRects, sampled.Lower),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s:\n got %#v\nwant %#v", name, got[name], w)
		}
	}
}

// newBenchFixture builds engine_cold's world: GridOpts{16, 16, 50, 0.2,
// 0.1} from seed 1, with a smaller workload than the benchmark's preload.
func newBenchFixture(t testing.TB) *fixture {
	t.Helper()
	w, err := roadnet.GridCity(
		roadnet.GridOpts{NX: 16, NY: 16, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 150, Horizon: 30000, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 300, LeaveProb: 0.5}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	if err := wl.Feed(st); err != nil {
		t.Fatal(err)
	}
	return &fixture{w: w, wl: wl, st: st, or: mobility.NewOracle(wl)}
}

// quadTreeEngine is a sampled engine over the benchmark's placement:
// QuadTree, 64 sensors, seed 4.
func (fx *fixture) quadTreeEngine(t testing.TB, opts sampled.Options) *Engine {
	t.Helper()
	cands := sampling.CandidatesFromDual(fx.w.Dual.InteriorNodes(), fx.w.Dual.G.Point)
	sel, err := sampling.QuadTreeSampler{Randomized: true}.Sample(cands, 64, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := sampled.Build(fx.w, sel, opts)
	if err != nil {
		t.Fatal(err)
	}
	return NewSampledEngine(sg, fx.st)
}

// TestWholeWorldPlanInstallsEmptyCuts: a rect that takes every cluster
// of G̃ is cut by no road, and its compiled region must still carry the
// perimeter the compile derived — an empty cut list, not a missing one —
// or Perimeter falls back to scanning every junction of the world. On
// engine_cold's world both bounds hold all 256 junctions, and the
// perimeter is the world edges of its 60 gateways, ascending.
func TestWholeWorldPlanInstallsEmptyCuts(t *testing.T) {
	bx := newBenchFixture(t)
	e := bx.quadTreeEngine(t, sampled.Options{Connect: sampled.Triangulation})
	var want []core.CutRoad
	for _, g := range bx.w.AscendingGateways() {
		want = append(want, core.CutRoad{Road: bx.w.WorldEdge(g), Inside: g})
	}
	if len(want) != 60 {
		t.Fatalf("engine_cold's world has %d gateways, want 60", len(want))
	}
	for _, b := range []sampled.Bound{sampled.Lower, sampled.Upper} {
		resp, err := e.Query(Request{Rect: bx.w.Bounds(), T1: bx.wl.Horizon, Kind: Snapshot, Bound: b})
		if err != nil {
			t.Fatal(err)
		}
		r := resp.Region
		if r.Size() != 256 || len(r.CutRoads()) != 0 {
			t.Fatalf("%v: whole-world region of %d junctions and %d cuts, want 256 and none", b, r.Size(), len(r.CutRoads()))
		}
		if n := r.PerimeterScans(); n != 0 {
			t.Errorf("%v: the whole-world region scanned its junctions %d times for a perimeter the compile derived", b, n)
		}
		if !slices.Equal(r.Perimeter(), want) {
			t.Errorf("%v: perimeter %v, want the gateways' world edges %v", b, r.Perimeter(), want)
		}
	}
}

// coldRequest is the i-th request of a cold stream: rects never repeat
// within len(rects) queries, kinds cycle.
func coldRequest(fx *fixture, rects []geom.Rect, i int) Request {
	return Request{
		Rect: rects[i%len(rects)], T1: fx.wl.Horizon * 0.3, T2: fx.wl.Horizon * 0.7,
		Kind: Kind(i % 3), Bound: sampled.Bound(i % 2),
	}
}

// TestColdQueryAllocBudget keeps containers from creeping back into the
// compile path: a plan-cache miss on the sampled engine allocates what
// its outputs need (one region, one array for its junctions and then its
// perimeter sensors, one for its perimeter, and the response; the plan
// cache holds plans by value) and nothing per probe — no exact region, no
// junction list from the rect, no membership array — and a hit
// allocates the Response alone. The miss budget is the measured mean
// over 512 distinct rects, 4 (8 at commit ea657dc, before the compile
// read its region off G̃'s face tables, 9 before commit 8c8085a, 18 with
// the exact region and JunctionsIn at commit 5c80267, 64 with the maps
// at commit 045d7a9), plus a margin of 3.
func TestColdQueryAllocBudget(t *testing.T) {
	const missBudget = 7
	// The compile scratch lives in sync.Pools; make check runs this test
	// once more without -race.
	if !poolsRetain() {
		t.Skip("sync.Pool does not retain here (race detector): the budget assumes pooled scratch comes back")
	}
	fx := newFixture(t, 7)
	e := fx.sampledEngine(t, 48, 9)
	rects := poolRects(fx, 1024, 83)
	i := 0
	miss := testing.AllocsPerRun(512, func() {
		if _, err := e.Query(coldRequest(fx, rects, i)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if st := e.PlanCacheStats(); st.Hits != 0 {
		t.Fatalf("cold stream hit the plan cache: %+v", st)
	}
	if miss > missBudget {
		t.Errorf("plan-cache miss allocates %.1f times a query, budget %d", miss, missBudget)
	}
	req := coldRequest(fx, rects, i-1) // resident: the last plan compiled
	hit := testing.AllocsPerRun(100, func() {
		if _, err := e.Query(req); err != nil {
			t.Fatal(err)
		}
	})
	if hit > 1 {
		t.Errorf("plan-cache hit allocates %.1f times a query, want 1 (the Response)", hit)
	}
}

// TestColdQueryBytesIndependentOfWorld: a sampled plan-cache miss
// allocates its outputs, and they are sized by the rect, not the world.
// On 400 × 400 rects over GridCity worlds of 16² and 128² junctions with a
// quarter of their faces sampled (BenchmarkQueryCold's scale cases), the
// bytes a miss allocates at 128² stay within 512 of those at 16²: an
// array sized to the world's junctions (16 KB at 128²) or dual nodes
// coming back into the compile fails it. The store is empty, since the
// counts allocate nothing either way. make check runs this test once
// more without -race.
func TestColdQueryBytesIndependentOfWorld(t *testing.T) {
	if !poolsRetain() {
		t.Skip("sync.Pool does not retain here (race detector): the bytes assume pooled scratch comes back")
	}
	perMiss := func(n int) float64 {
		w, err := roadnet.GridCity(
			roadnet.GridOpts{NX: n, NY: n, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.15}, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		fx := &fixture{w: w, wl: &mobility.Workload{W: w, Horizon: 30000}, st: core.NewStore(w)}
		e := fx.sampledEngine(t, len(w.Dual.InteriorNodes())/4, 9)
		rects := fixedRects(fx, 1024, 400, 83)
		query := func(i int) {
			if _, err := e.Query(coldRequest(fx, rects, i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := range rects { // size the pools and fill the plan cache
			query(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range rects {
			query(i)
		}
		runtime.ReadMemStats(&after)
		if st := e.PlanCacheStats(); st.Hits != 0 {
			t.Fatalf("%d²: the cold stream hit the plan cache: %+v", n, st)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(rects))
	}
	small, large := perMiss(16), perMiss(128)
	t.Logf("bytes a miss: %.0f at 16², %.0f at 128²", small, large)
	if large > small+512 {
		t.Errorf("a miss allocates %.0f bytes at 128² against %.0f at 16²: the compile pays for the world", large, small)
	}
}

// poolsRetain reports whether sync.Pool hands back what it is given:
// under the race detector Put drops a quarter of it, on purpose, and a
// budget that assumes pooled scratch comes back cannot be held.
func poolsRetain() bool {
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		probe.Put(new(int))
		if probe.Get() == nil {
			return false
		}
	}
	return true
}

// TestHotQueryAllocBudget: a hot query pays nothing for gateways. A
// region's integration perimeter — its cut roads, then the world edges
// of the gateways inside — is fixed when its plan compiles and memoized
// on the cached Region, so a plan-cache hit over the whole world (every
// gateway inside) allocates no more than one over an interior rect with
// none, for all three kinds; and since the perimeter names every
// gateway inside whether or not it has carried an event, an Enter at a
// gateway inside a cached region is counted by the very next query on
// that plan, with no recompile.
func TestHotQueryAllocBudget(t *testing.T) {
	fx := newFixture(t, 7)
	e := NewEngine(fx.w, fx.st)
	whole, interior := fx.w.Bounds(), centerRect(fx.w, 0.4)
	inside := func(rect geom.Rect) (n int) {
		js := fx.w.JunctionsIn(rect)
		for _, g := range fx.w.Gateways {
			if _, ok := slices.BinarySearch(js, g); ok {
				n++
			}
		}
		return n
	}
	if all, none := inside(whole), inside(interior); all < 8 || none != 0 {
		t.Fatalf("%d gateways inside the whole-world rect, %d inside the interior one: want several and none", all, none)
	}
	query := func(rect geom.Rect, kind Kind) float64 {
		t.Helper()
		resp, err := e.Query(Request{Rect: rect, T1: fx.wl.Horizon * 0.3, T2: fx.wl.Horizon + 10, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Count
	}

	t.Run("budget", func(t *testing.T) {
		if !poolsRetain() {
			t.Skip("sync.Pool does not retain here (race detector): the static kernel's scratch is pooled")
		}
		for _, kind := range []Kind{Snapshot, Static, Transient} {
			allocs := func(rect geom.Rect) float64 {
				query(rect, kind) // compile the plan, build the perimeter, size the pools
				return testing.AllocsPerRun(100, func() { query(rect, kind) })
			}
			if w, i := allocs(whole), allocs(interior); w > i || i > 1 {
				t.Errorf("%v: a plan-cache hit allocates %.1f times over the whole world, %.1f over a gateway-free interior: want the same, the Response alone", kind, w, i)
			}
		}
	})

	t.Run("perimeter fixed at compile", func(t *testing.T) {
		g := fx.w.Gateways[0]
		before := query(whole, Transient)
		compiled := e.PlanCacheStats().Misses
		if err := fx.st.RecordEnter(g, fx.wl.Horizon+2); err != nil {
			t.Fatal(err)
		}
		if got := query(whole, Transient); got != before+1 {
			t.Fatalf("whole-world transient after an Enter at gateway %d = %v, want %v", g, got, before+1)
		}
		if st := e.PlanCacheStats(); st.Misses != compiled {
			t.Fatalf("the plan was recompiled: %+v", st)
		}
	})
}

// BenchmarkQueryCold streams 4 096 distinct rects through the default
// 256-entry plan cache, so every query compiles its plan — the paper's
// ad hoc query path. Compare with BenchmarkQueryHot for the cold/hot
// ratio (make microbench; -cpu 1).
//
// The scale cases hold the rect fixed at 400 × 400 (about 8 × 8
// junctions) and grow the world: GridCity worlds of 16², 64² and 128²
// junctions under the fixture's workload, a quarter of the faces
// sampled. A cold plan should cost the rect, not the world; what ns/op
// gains from 16² to 128² is what a compile pays for the world's size.
// Each world is built once, before its two sub-benchmarks.
func BenchmarkQueryCold(b *testing.B) {
	fx := newFixture(b, 7)
	rects := poolRects(fx, 4096, 83)
	for _, bc := range []struct {
		name string
		e    *Engine
	}{{"sampled", fx.sampledEngine(b, 48, 9)}, {"unsampled", NewEngine(fx.w, fx.st)}} {
		b.Run(bc.name, func(b *testing.B) { benchQueries(b, fx, bc.e, rects) })
	}
	for _, n := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("scale/%d", n), func(b *testing.B) {
			fx := gridFixture(b, n, 7)
			rects := fixedRects(fx, 4096, 400, 83)
			faces := len(fx.w.Dual.InteriorNodes())
			b.Run("sampled", func(b *testing.B) { benchQueries(b, fx, fx.sampledEngine(b, faces/4, 9), rects) })
			b.Run("unsampled", func(b *testing.B) { benchQueries(b, fx, NewEngine(fx.w, fx.st), rects) })
		})
	}
}

// fixedRects draws n side × side rects uniformly inside fx's world.
func fixedRects(fx *fixture, n int, side float64, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	b := fx.w.Bounds()
	rects := make([]geom.Rect, 0, n)
	for i := 0; i < n; i++ {
		x := b.Min.X + rng.Float64()*(b.Width()-side)
		y := b.Min.Y + rng.Float64()*(b.Height()-side)
		rects = append(rects, geom.RectWH(x, y, side, side))
	}
	return rects
}

// BenchmarkQueryHot cycles 64 rects: after the first lap every query
// hits the plan cache and only the perimeter integration remains.
func BenchmarkQueryHot(b *testing.B) {
	fx := newFixture(b, 7)
	b.Run("sampled", func(b *testing.B) {
		benchQueries(b, fx, fx.sampledEngine(b, 48, 9), poolRects(fx, 64, 83))
	})
}

func benchQueries(b *testing.B, fx *fixture, e *Engine, rects []geom.Rect) {
	for i := range rects { // warm: fill the cache, size the pools
		if _, err := e.Query(coldRequest(fx, rects, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(coldRequest(fx, rects, i)); err != nil {
			b.Fatal(err)
		}
	}
}
