package core_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// fixture builds a world, a workload, a fed store and an oracle once per
// test binary; the theorem tests are read-only over it.
type fixture struct {
	w  *roadnet.World
	wl *mobility.Workload
	st *core.Store
	or *mobility.Oracle
}

func newFixture(t *testing.T, seed int64, cityOpts roadnet.GridOpts, mobOpts mobility.Opts) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := roadnet.GridCity(cityOpts, rng)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := mobility.Generate(w, mobOpts, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	if err := wl.Feed(st); err != nil {
		t.Fatal(err)
	}
	return &fixture{w: w, wl: wl, st: st, or: mobility.NewOracle(wl)}
}

func smallFixture(t *testing.T, seed int64) *fixture {
	return newFixture(t, seed,
		roadnet.GridOpts{NX: 10, NY: 10, Spacing: 50, Jitter: 0.25, RemoveFrac: 0.2, CurveFrac: 0.1},
		mobility.Opts{Objects: 80, Horizon: 20000, TripsPerObject: 4,
			MeanSpeed: 10, MeanPause: 300, LeaveProb: 0.5, HotspotBias: 0.4})
}

func randomRegion(t *testing.T, w *roadnet.World, rng *rand.Rand) *core.Region {
	t.Helper()
	b := w.Bounds()
	wFrac := 0.15 + rng.Float64()*0.5
	hFrac := 0.15 + rng.Float64()*0.5
	x := b.Min.X + rng.Float64()*b.Width()*(1-wFrac)
	y := b.Min.Y + rng.Float64()*b.Height()*(1-hFrac)
	rect := geom.RectWH(x, y, b.Width()*wFrac, b.Height()*hFrac)
	r, err := core.NewRegion(w, w.JunctionsIn(rect))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTheorem41SnapshotMatchesOracle is the central correctness property:
// on the unsampled graph, the boundary integral of the tracking forms
// equals the true occupancy for every region and time (Theorem 4.1/4.2).
func TestTheorem41SnapshotMatchesOracle(t *testing.T) {
	fx := smallFixture(t, 101)
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 60; trial++ {
		r := randomRegion(t, fx.w, rng)
		ts := rng.Float64() * fx.wl.Horizon
		got := core.SnapshotCount(fx.st, r, ts)
		want := float64(fx.or.InsideAt(r.Contains, ts))
		if got != want {
			t.Fatalf("trial %d: snapshot(%v) = %v, oracle = %v (region %d junctions)",
				trial, ts, got, want, r.Size())
		}
	}
}

// TestTheorem43TransientMatchesOracle checks the net-flow count.
func TestTheorem43TransientMatchesOracle(t *testing.T) {
	fx := smallFixture(t, 103)
	rng := rand.New(rand.NewSource(204))
	for trial := 0; trial < 60; trial++ {
		r := randomRegion(t, fx.w, rng)
		t1 := rng.Float64() * fx.wl.Horizon
		t2 := t1 + rng.Float64()*(fx.wl.Horizon-t1)
		got := core.TransientCount(fx.st, r, t1, t2)
		want := float64(fx.or.TransientCount(r.Contains, t1, t2))
		if got != want {
			t.Fatalf("trial %d: transient = %v, oracle = %v", trial, got, want)
		}
	}
}

// TestTheorem42StaticBounds checks the static count: the min-scan value is
// always ≥ the true always-present count and ≤ occupancy at both interval
// endpoints.
func TestTheorem42StaticBounds(t *testing.T) {
	fx := smallFixture(t, 105)
	rng := rand.New(rand.NewSource(206))
	exact, approx := 0, 0
	for trial := 0; trial < 60; trial++ {
		r := randomRegion(t, fx.w, rng)
		t1 := rng.Float64() * fx.wl.Horizon * 0.8
		t2 := t1 + rng.Float64()*(fx.wl.Horizon-t1)
		got := core.StaticCount(fx.st, r, t1, t2)
		truth := float64(fx.or.StaticCount(r.Contains, t1, t2))
		at1 := float64(fx.or.InsideAt(r.Contains, t1))
		at2 := float64(fx.or.InsideAt(r.Contains, t2))
		if got < truth {
			t.Fatalf("static %v below true always-present count %v", got, truth)
		}
		if got > at1 || got > at2 {
			t.Fatalf("static %v exceeds endpoint occupancy (%v, %v)", got, at1, at2)
		}
		if got == truth {
			exact++
		} else {
			approx++
		}
	}
	if exact == 0 {
		t.Error("static count never matched the oracle exactly; min-scan looks broken")
	}
}

// TestStaticCountSampledConsistency: the sampled approximation can only
// overestimate the event-scan value (it probes fewer instants).
func TestStaticCountSampledConsistency(t *testing.T) {
	fx := smallFixture(t, 107)
	rng := rand.New(rand.NewSource(208))
	for trial := 0; trial < 30; trial++ {
		r := randomRegion(t, fx.w, rng)
		t1 := rng.Float64() * fx.wl.Horizon * 0.5
		t2 := t1 + rng.Float64()*(fx.wl.Horizon-t1)
		exact := core.StaticCount(fx.st, r, t1, t2)
		sampled := core.StaticCountSampled(fx.st, r, t1, t2, 20)
		if sampled < exact {
			t.Fatalf("sampled static %v < exact min-scan %v", sampled, exact)
		}
	}
}

// TestDoubleCountingAvoided reproduces the paper's §3.1.2 scenario: an
// object that repeatedly exits and re-enters a region is counted once by
// the forms, while a naive crossing counter counts it every time.
func TestDoubleCountingAvoided(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 6, NY: 6, Spacing: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	// Region: left half of the city.
	b := w.Bounds()
	rect := geom.RectWH(b.Min.X, b.Min.Y, b.Width()/2+1, b.Height())
	r, err := core.NewRegion(w, w.JunctionsIn(rect))
	if err != nil {
		t.Fatal(err)
	}
	// Find a cut road to bounce across.
	cuts := r.CutRoads()
	if len(cuts) == 0 {
		t.Fatal("no cut roads")
	}
	cr := cuts[0]
	inside := cr.Inside
	outside := w.Star.Edge(cr.Road).Other(inside)
	gw := w.Gateways[0]
	ts := 0.0
	mustNoErr(t, st.RecordEnter(gw, ts))
	// Walk from the gateway to the outside endpoint (events on the way).
	nodes, edges, ok := planar.DijkstraTo(w.Star, gw, outside)
	if !ok {
		t.Fatal("no path from gateway")
	}
	for i, e := range edges {
		ts += 1
		mustNoErr(t, st.RecordMove(e, nodes[i], ts))
	}
	// Bounce in and out 5 times.
	naiveEntries := 0.0
	for k := 0; k < 5; k++ {
		ts += 1
		mustNoErr(t, st.RecordMove(cr.Road, outside, ts))
		naiveEntries++
		ts += 1
		mustNoErr(t, st.RecordMove(cr.Road, inside, ts))
	}
	ts += 1
	mustNoErr(t, st.RecordMove(cr.Road, outside, ts))
	naiveEntries++
	// The object is now inside; the form count must be exactly 1.
	if got := core.SnapshotCount(st, r, ts+1); got != 1 {
		t.Errorf("snapshot = %v, want 1 (double counting?)", got)
	}
	// A naive entry counter would report 6.
	if naiveEntries != 6 {
		t.Fatalf("scenario setup wrong: %v entries", naiveEntries)
	}
	inCross := st.RoadCrossings(cr.Road, inside, ts+1)
	if inCross != naiveEntries {
		t.Fatalf("raw in-crossings = %v, want %v", inCross, naiveEntries)
	}
}

// TestRegionCutRoads verifies the perimeter structure on a known grid.
func TestRegionCutRoads(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 5, NY: 5, Spacing: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Single interior junction (2,2): its cut roads = its incident roads.
	target := planar.NodeID(2*5 + 2)
	r, err := core.NewRegion(w, []planar.NodeID{target})
	if err != nil {
		t.Fatal(err)
	}
	cuts := r.CutRoads()
	if len(cuts) != w.Star.Degree(target) {
		t.Errorf("cut roads = %d, want degree %d", len(cuts), w.Star.Degree(target))
	}
	for _, c := range cuts {
		if c.Inside != target {
			t.Error("wrong inside endpoint")
		}
	}
	// The whole world has no cut roads.
	all, err := core.NewRegion(w, w.JunctionsIn(w.Bounds()))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(all.CutRoads()); n != 0 {
		t.Errorf("whole-world cut roads = %d, want 0", n)
	}
}

func TestRegionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 3, NY: 3, Spacing: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewRegion(w, []planar.NodeID{99}); err == nil {
		t.Error("out-of-range junction accepted")
	}
	r, err := core.NewRegion(w, []planar.NodeID{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 2 {
		t.Errorf("dedup failed: size = %d", r.Size())
	}
	if r.Contains(planar.NodeID(-1)) {
		t.Error("negative id contained")
	}
	empty, err := core.NewRegion(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Empty() {
		t.Error("empty region not empty")
	}
}

func TestStoreValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 3, NY: 3, Spacing: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	if err := st.RecordMove(planar.EdgeID(999), 0, 1); err == nil {
		t.Error("bad road accepted")
	}
	if err := st.RecordMove(planar.EdgeID(0), 99, 1); err == nil {
		t.Error("non-endpoint accepted")
	}
	mustNoErr(t, st.RecordMove(0, w.Star.Edge(0).U, 5))
	if err := st.RecordMove(0, w.Star.Edge(0).U, 3); err == nil {
		t.Error("time regression accepted")
	}
	if st.NumEvents() != 1 {
		t.Errorf("events = %d", st.NumEvents())
	}
	if st.Clock() != 5 {
		t.Errorf("clock = %v", st.Clock())
	}
}

func TestSnapshotMonotoneAdditivity(t *testing.T) {
	// Counting is additive over disjoint regions: inside(A) + inside(B)
	// = inside(A ∪ B) when A and B are disjoint junction sets.
	fx := smallFixture(t, 109)
	rng := rand.New(rand.NewSource(210))
	b := fx.w.Bounds()
	left := geom.RectWH(b.Min.X, b.Min.Y, b.Width()/2, b.Height())
	right := geom.RectWH(b.Min.X+b.Width()/2+1e-9, b.Min.Y, b.Width()/2, b.Height())
	ra, err := core.NewRegion(fx.w, fx.w.JunctionsIn(left))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := core.NewRegion(fx.w, fx.w.JunctionsIn(right))
	if err != nil {
		t.Fatal(err)
	}
	both, err := core.NewRegion(fx.w, append(append([]planar.NodeID{},
		ra.Junctions()...), rb.Junctions()...))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		ts := rng.Float64() * fx.wl.Horizon
		sum := core.SnapshotCount(fx.st, ra, ts) + core.SnapshotCount(fx.st, rb, ts)
		union := core.SnapshotCount(fx.st, both, ts)
		if sum != union {
			t.Fatalf("additivity broken: %v + split ≠ %v", sum, union)
		}
	}
}

// TestSnapshotQuick is a quick-check style property over random seeds:
// snapshot equals oracle on freshly generated small worlds.
func TestSnapshotQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := &quick.Config{MaxCount: 8}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, err := roadnet.GridCity(
			roadnet.GridOpts{NX: 6, NY: 6, Spacing: 20, Jitter: 0.2, RemoveFrac: 0.15}, rng)
		if err != nil {
			return false
		}
		wl, err := mobility.Generate(w, mobility.Opts{
			Objects: 25, Horizon: 5000, TripsPerObject: 3,
			MeanSpeed: 8, MeanPause: 120, LeaveProb: 0.5}, rng)
		if err != nil {
			return false
		}
		st := core.NewStore(w)
		if err := wl.Feed(st); err != nil {
			return false
		}
		or := mobility.NewOracle(wl)
		for trial := 0; trial < 15; trial++ {
			b := w.Bounds()
			rect := geom.RectWH(
				b.Min.X+rng.Float64()*b.Width()/2,
				b.Min.Y+rng.Float64()*b.Height()/2,
				b.Width()/3, b.Height()/3)
			r, err := core.NewRegion(w, w.JunctionsIn(rect))
			if err != nil {
				return false
			}
			ts := rng.Float64() * wl.Horizon
			if core.SnapshotCount(st, r, ts) != float64(or.InsideAt(r.Contains, ts)) {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPerimeterSensors(t *testing.T) {
	fx := smallFixture(t, 111)
	rng := rand.New(rand.NewSource(212))
	r := randomRegion(t, fx.w, rng)
	sensors := r.PerimeterSensors()
	if r.Size() > 0 && r.Size() < fx.w.NumJunctions() && len(sensors) == 0 {
		t.Error("proper region has no perimeter sensors")
	}
	for _, s := range sensors {
		if s == fx.w.Dual.OuterNode {
			t.Error("outer node reported as perimeter sensor")
		}
	}
}

// TestPerimeterSensorsSharedScratch checks the pooled visited marks of
// PerimeterSensors: regions over worlds of different sizes, asked from
// several goroutines at once, each get the sensors a map-based walk of
// their own cut roads finds — in first-seen order, the order the
// collection tour starts from.
func TestPerimeterSensorsSharedScratch(t *testing.T) {
	var regions []*core.Region
	for i, nx := range []int{5, 14, 8} {
		w, err := roadnet.GridCity(roadnet.GridOpts{NX: nx, NY: nx, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.1},
			rand.New(rand.NewSource(int64(300+i))))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(310 + i)))
		for k := 0; k < 8; k++ {
			regions = append(regions, randomRegion(t, w, rng))
		}
	}
	reference := func(r *core.Region) []planar.NodeID {
		d := r.World().Dual
		seen := make(map[planar.NodeID]bool)
		var out []planar.NodeID
		for _, cr := range r.CutRoads() {
			if de := d.EdgeOf[cr.Road]; de != planar.NoEdge {
				e := d.G.Edge(de)
				for _, n := range []planar.NodeID{e.U, e.V} {
					if n != d.OuterNode && !seen[n] {
						seen[n] = true
						out = append(out, n)
					}
				}
			}
		}
		return out
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				r := regions[(g*7+k*5)%len(regions)] // hop between worlds
				if got, want := r.PerimeterSensors(), reference(r); !slices.Equal(got, want) {
					t.Errorf("region %d: sensors %v, want %v", (g*7+k*5)%len(regions), got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStorageStats(t *testing.T) {
	fx := smallFixture(t, 113)
	st := fx.st.Storage()
	if st.TotalTimestamps == 0 {
		t.Fatal("no timestamps recorded")
	}
	if st.Bytes != st.TotalTimestamps*8 {
		t.Error("bytes accounting wrong")
	}
	sum := 0
	for _, n := range st.TimestampsPerRoad {
		sum += n
	}
	if sum != st.TotalTimestamps {
		t.Error("per-road sum mismatch")
	}
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
