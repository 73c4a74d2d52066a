package sampled

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/planar"
	"repro/internal/roadnet"
	"repro/internal/sampling"
)

func testWorld(t *testing.T, seed int64) *roadnet.World {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := roadnet.GridCity(
		roadnet.GridOpts{NX: 12, NY: 12, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func selectSensors(t *testing.T, w *roadnet.World, m int, seed int64) []planar.NodeID {
	t.Helper()
	cands := sampling.CandidatesFromDual(w.Dual.InteriorNodes(), w.Dual.G.Point)
	sel, err := sampling.Uniform{}.Sample(cands, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestBuildTriangulation(t *testing.T) {
	w := testWorld(t, 1)
	sensors := selectSensors(t, w, 20, 2)
	g, err := Build(w, sensors, Options{Connect: Triangulation})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.DualEdges) == 0 {
		t.Fatal("no dual edges materialized")
	}
	if g.NumSensors() < len(sensors) {
		t.Errorf("sensors %d < selected %d", g.NumSensors(), len(sensors))
	}
	if len(g.clusters) < 2 {
		t.Errorf("clusters = %d, want ≥ 2 (the graph should enclose faces)", len(g.clusters))
	}
	// Monitored roads are exactly the duals of the G̃ edges.
	if len(g.MonitoredRoads) != len(g.DualEdges) {
		t.Errorf("monitored roads %d != dual edges %d", len(g.MonitoredRoads), len(g.DualEdges))
	}
	for _, road := range g.MonitoredRoads {
		if !g.Monitors(road) {
			t.Error("Monitors inconsistent")
		}
	}
}

func TestBuildKNN(t *testing.T) {
	w := testWorld(t, 3)
	sensors := selectSensors(t, w, 20, 4)
	for _, k := range []int{2, 3, 5} {
		g, err := Build(w, sensors, Options{Connect: KNN, K: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(g.DualEdges) == 0 {
			t.Fatalf("k=%d: no edges", k)
		}
	}
}

func TestKNNMoreEdgesWithLargerK(t *testing.T) {
	w := testWorld(t, 5)
	sensors := selectSensors(t, w, 25, 6)
	var prev int
	for _, k := range []int{1, 3, 6} {
		g, err := Build(w, sensors, Options{Connect: KNN, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if len(g.DualEdges) < prev {
			t.Errorf("k=%d produced fewer dual edges (%d) than smaller k (%d)",
				k, len(g.DualEdges), prev)
		}
		prev = len(g.DualEdges)
	}
}

func TestBuildValidation(t *testing.T) {
	w := testWorld(t, 7)
	if _, err := Build(w, nil, Options{}); err == nil {
		t.Error("empty sensor set accepted")
	}
	if _, err := Build(w, []planar.NodeID{w.Dual.OuterNode}, Options{}); err == nil {
		t.Error("outer node accepted as sensor")
	}
	if _, err := Build(w, []planar.NodeID{-5}, Options{}); err == nil {
		t.Error("out-of-range sensor accepted")
	}
	if _, err := Build(w, selectSensors(t, w, 5, 8), Options{Connect: Connectivity(99)}); err == nil {
		t.Error("unknown connectivity accepted")
	}
	if _, err := BuildFromDualEdges(w, nil); err == nil {
		t.Error("empty dual edge set accepted")
	}
	if _, err := BuildFromDualEdges(w, []planar.EdgeID{99999}); err == nil {
		t.Error("out-of-range dual edge accepted")
	}
}

func TestClustersPartitionJunctions(t *testing.T) {
	w := testWorld(t, 9)
	g, err := Build(w, selectSensors(t, w, 30, 10), Options{Connect: Triangulation})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[planar.NodeID]int)
	for id := range g.clusters {
		for _, j := range g.clusters[id] {
			if _, dup := seen[j]; dup {
				t.Fatalf("junction %d in two clusters", j)
			}
			seen[j] = id
			if g.clusterOf[j] != id {
				t.Fatalf("clusterOf[%d] = %d, want %d", j, g.clusterOf[j], id)
			}
		}
	}
	if len(seen) != w.Star.NumNodes() {
		t.Errorf("clusters cover %d of %d junctions", len(seen), w.Star.NumNodes())
	}
}

func TestClusterBoundariesAreMonitored(t *testing.T) {
	// The key structural invariant: any road between two different
	// clusters must be monitored.
	w := testWorld(t, 11)
	g, err := Build(w, selectSensors(t, w, 25, 12), Options{Connect: Triangulation})
	if err != nil {
		t.Fatal(err)
	}
	for ei := 0; ei < w.Star.NumEdges(); ei++ {
		e := w.Star.Edge(planar.EdgeID(ei))
		if g.clusterOf[e.U] != g.clusterOf[e.V] && !g.Monitors(planar.EdgeID(ei)) {
			t.Fatalf("road %d crosses clusters but is unmonitored", ei)
		}
	}
}

func TestApproximateRegionBounds(t *testing.T) {
	w := testWorld(t, 13)
	g, err := Build(w, selectSensors(t, w, 30, 14), Options{Connect: Triangulation})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	b := w.Bounds()
	misses := 0
	for trial := 0; trial < 40; trial++ {
		rect := geom.RectWH(
			b.Min.X+rng.Float64()*b.Width()/2,
			b.Min.Y+rng.Float64()*b.Height()/2,
			b.Width()*(0.2+rng.Float64()*0.4),
			b.Height()*(0.2+rng.Float64()*0.4))
		exact, err := core.NewRegion(w, w.JunctionsIn(rect))
		if err != nil {
			t.Fatal(err)
		}
		lower, _, lmiss, err := g.ApproximateRect(rect, Lower)
		if err != nil {
			t.Fatal(err)
		}
		upper, _, _, err := g.ApproximateRect(rect, Upper)
		if err != nil {
			t.Fatal(err)
		}
		if lmiss {
			misses++
		}
		// Lower ⊆ exact ⊆ upper.
		for _, j := range lower.Junctions() {
			if !exact.Contains(j) {
				t.Fatal("lower approximation exceeds exact region")
			}
		}
		for _, j := range exact.Junctions() {
			if !upper.Contains(j) {
				t.Fatal("upper approximation misses exact junctions")
			}
		}
		// Approximated regions have fully monitored perimeters.
		for _, r := range []*core.Region{lower, upper} {
			for _, cr := range r.CutRoads() {
				if !g.Monitors(cr.Road) {
					t.Fatalf("cut road %d not monitored", cr.Road)
				}
			}
		}
	}
	if misses == 40 {
		t.Error("every query missed; sampled graph degenerate")
	}
}

// TestApproximateRegionDeterministic requires repeated approximations
// of one rect to return the same region in the same order: Junctions()
// in ascending cluster id (callers walk and print it), CutRoads() in
// MonitoredRoads order (float accumulation follows it).
func TestApproximateRegionDeterministic(t *testing.T) {
	w := testWorld(t, 13)
	g, err := Build(w, selectSensors(t, w, 30, 14), Options{Connect: Triangulation})
	if err != nil {
		t.Fatal(err)
	}
	b := w.Bounds()
	rect := geom.RectWH(b.Min.X+0.15*b.Width(), b.Min.Y+0.15*b.Height(), 0.7*b.Width(), 0.7*b.Height())
	for _, bound := range []Bound{Lower, Upper} {
		first, _, _, err := g.ApproximateRect(rect, bound)
		if err != nil {
			t.Fatal(err)
		}
		if first.Size() < 2 {
			t.Fatalf("%v: region of %d junctions cannot show an order", bound, first.Size())
		}
		for i := 1; i < 20; i++ {
			again, _, _, err := g.ApproximateRect(rect, bound)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(again.Junctions(), first.Junctions()) {
				t.Fatalf("%v: compile %d ordered the junctions differently", bound, i)
			}
			if !slices.Equal(again.CutRoads(), first.CutRoads()) {
				t.Fatalf("%v: compile %d ordered the cut roads differently", bound, i)
			}
		}
	}
}

// referenceApprox is the junction-granular approximation ApproximateRect
// replaced, kept here as its specification: count the rect's junctions
// per cluster, include a cluster when all of them (Lower) or any (Upper)
// are inside, list the included clusters' junctions in ascending cluster
// id, and cut every monitored road with exactly one end included, in
// MonitoredRoads order.
func referenceApprox(g *Graph, rect geom.Rect, b Bound) (junctions []planar.NodeID, cuts []core.CutRoad, exactSize int) {
	js := g.W.JunctionsIn(rect)
	hits := make(map[int]int)
	for _, j := range js {
		hits[g.clusterOf[j]]++
	}
	included := make(map[int]bool)
	for id := range g.clusters {
		if hits[id] > 0 && (b == Upper || hits[id] == len(g.clusters[id])) {
			included[id] = true
			junctions = append(junctions, g.clusters[id]...)
		}
	}
	if len(junctions) > 0 {
		for _, road := range g.MonitoredRoads {
			e := g.W.Star.Edge(road)
			inU, inV := included[g.clusterOf[e.U]], included[g.clusterOf[e.V]]
			if inU != inV {
				inside := e.U
				if inV {
					inside = e.V
				}
				cuts = append(cuts, core.CutRoad{Road: road, Inside: inside})
			}
		}
	}
	return junctions, cuts, len(js)
}

// equivalenceRects draws the rects the face-granular approximation must
// agree with the junction reference on: random ones, ones whose edges
// sit exactly on junction coordinates (both bounds are closed), zero
// width or height, infinite corners, ones disjoint from the world, and
// the world itself.
func equivalenceRects(w *roadnet.World, rng *rand.Rand) []geom.Rect {
	b := w.Bounds()
	inf := math.Inf(1)
	rects := []geom.Rect{
		b,
		{Min: geom.Pt(-inf, -inf), Max: geom.Pt(inf, inf)},
		geom.RectWH(b.Max.X+1, b.Min.Y, 50, b.Height()),
		geom.RectWH(b.Min.X-100, b.Min.Y-100, 99, 99),
	}
	pt := func() geom.Point { return w.Star.Point(planar.NodeID(rng.Intn(w.Star.NumNodes()))) }
	for i := 0; i < 40; i++ {
		rects = append(rects, geom.RectWH(
			b.Min.X-0.1*b.Width()+rng.Float64()*b.Width(),
			b.Min.Y-0.1*b.Height()+rng.Float64()*b.Height(),
			rng.Float64()*0.8*b.Width(), rng.Float64()*0.8*b.Height()))
		p, q := pt(), pt()
		rects = append(rects,
			geom.NewRect(p, q),
			geom.Rect{Min: geom.Pt(p.X, b.Min.Y), Max: geom.Pt(p.X, b.Max.Y)}, // zero width
			geom.Rect{Min: geom.Pt(b.Min.X, p.Y), Max: geom.Pt(b.Max.X, p.Y)}, // zero height
			geom.Rect{Min: p, Max: p},
			geom.Rect{Min: geom.Pt(-inf, -inf), Max: p},
			geom.Rect{Min: geom.Pt(p.X, -inf), Max: geom.Pt(inf, q.Y)},
		)
	}
	return rects
}

// TestApproximateRectMatchesJunctionReference holds ApproximateRect, which
// decides inclusion per cluster from its bounding rect, to the junction
// reference slice for slice: the same Junctions() in the same order, the
// same CutRoads() in the same order, the same exact size and miss flag.
func TestApproximateRectMatchesJunctionReference(t *testing.T) {
	w := testWorld(t, 31)
	sensors := selectSensors(t, w, 30, 32)
	graphs := map[string]*Graph{}
	var err error
	if graphs["delaunay"], err = Build(w, sensors, Options{Connect: Triangulation}); err != nil {
		t.Fatal(err)
	}
	if graphs["knn"], err = Build(w, sensors, Options{Connect: KNN, K: 3}); err != nil {
		t.Fatal(err)
	}
	b := w.Bounds()
	r, err := core.NewRegion(w, w.JunctionsIn(geom.RectWH(b.Min.X+0.2*b.Width(), b.Min.Y+0.2*b.Height(), b.Width()/2, b.Height()/2)))
	if err != nil {
		t.Fatal(err)
	}
	var des []planar.EdgeID
	for _, cr := range r.CutRoads() {
		if de := w.Dual.EdgeOf[cr.Road]; de != planar.NoEdge {
			des = append(des, de)
		}
	}
	if graphs["dual-edges"], err = BuildFromDualEdges(w, des); err != nil {
		t.Fatal(err)
	}
	rects := equivalenceRects(w, rand.New(rand.NewSource(33)))
	for name, g := range graphs {
		for _, bound := range []Bound{Lower, Upper} {
			for i, rect := range rects {
				wantJs, wantCuts, wantSize := referenceApprox(g, rect, bound)
				got, size, missed, err := g.ApproximateRect(rect, bound)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Junctions(), wantJs) || !slices.Equal(got.CutRoads(), wantCuts) ||
					size != wantSize || missed != (len(wantJs) == 0) {
					t.Fatalf("%s/%v rect %d %v: got %d junctions, %d cuts, size %d, missed %v; want %d, %d, %d, %v",
						name, bound, i, rect, got.Size(), len(got.CutRoads()), size, missed,
						len(wantJs), len(wantCuts), wantSize, len(wantJs) == 0)
				}
			}
		}
	}
}

// TestCompiledRegionMatchesCoreReference holds the region a compile
// builds from G̃'s face tables to the generic core path over the same
// junctions: NewRegion's junction scan and gateway pass for the
// perimeter, and the dual-edge walk of PerimeterSensors for the
// sensors. The compile emits its cuts in MonitoredRoads order, which is
// ascending road id, so the reference orders the scanned cuts by road
// and walks them in that order; then Perimeter(), CutRoads() and
// PerimeterSensors() must match slice for slice, and Contains must
// agree on every junction and on ids outside the world. Both bounds, over
// Delaunay, 3-NN and dual-edge graphs, on equivalenceRects (whole-world,
// zero-width, infinite, missed and random rects).
func TestCompiledRegionMatchesCoreReference(t *testing.T) {
	w := testWorld(t, 35)
	sensors := selectSensors(t, w, 30, 36)
	graphs := map[string]*Graph{}
	var err error
	if graphs["delaunay"], err = Build(w, sensors, Options{Connect: Triangulation}); err != nil {
		t.Fatal(err)
	}
	if graphs["knn"], err = Build(w, sensors, Options{Connect: KNN, K: 3}); err != nil {
		t.Fatal(err)
	}
	// The dual-edge graph bounds a corner of the world, so the faces on
	// either side of it both hold gateways.
	b := w.Bounds()
	r, err := core.NewRegion(w, w.JunctionsIn(geom.RectWH(b.Min.X, b.Min.Y, b.Width()/2, b.Height()/2)))
	if err != nil {
		t.Fatal(err)
	}
	var des []planar.EdgeID
	for _, cr := range r.CutRoads() {
		if de := w.Dual.EdgeOf[cr.Road]; de != planar.NoEdge {
			des = append(des, de)
		}
	}
	if graphs["dual-edges"], err = BuildFromDualEdges(w, des); err != nil {
		t.Fatal(err)
	}
	walk := func(cuts []core.CutRoad) []planar.NodeID {
		d := w.Dual
		seen := make(map[planar.NodeID]bool)
		var out []planar.NodeID
		for _, cr := range cuts {
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
	rects := equivalenceRects(w, rand.New(rand.NewSource(37)))
	missed, whole := 0, 0
	for name, g := range graphs {
		for _, bound := range []Bound{Lower, Upper} {
			for i, rect := range rects {
				got, _, miss, err := g.ApproximateRect(rect, bound)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := core.NewRegion(w, got.Junctions())
				if err != nil {
					t.Fatal(err)
				}
				cuts := slices.Clone(ref.CutRoads())
				slices.SortFunc(cuts, func(a, b core.CutRoad) int { return int(a.Road - b.Road) })
				perimeter := append(slices.Clone(cuts), ref.Perimeter()[len(cuts):]...)
				if !slices.Equal(got.CutRoads(), cuts) || !slices.Equal(got.Perimeter(), perimeter) {
					t.Fatalf("%s/%v rect %d %v: perimeter %v (%d cuts), core reference %v (%d cuts)",
						name, bound, i, rect, got.Perimeter(), len(got.CutRoads()), perimeter, len(cuts))
				}
				if want := walk(cuts); !slices.Equal(got.PerimeterSensors(), want) {
					t.Fatalf("%s/%v rect %d %v: sensors %v, dual-edge walk %v", name, bound, i, rect, got.PerimeterSensors(), want)
				}
				for j := planar.NodeID(-1); int(j) <= w.Star.NumNodes(); j++ {
					if got.Contains(j) != ref.Contains(j) {
						t.Fatalf("%s/%v rect %d %v: Contains(%d) = %v, core %v", name, bound, i, rect, j, got.Contains(j), ref.Contains(j))
					}
				}
				if got.PerimeterScans() != 0 {
					t.Fatalf("%s/%v rect %d: the compiled region scanned its junctions", name, bound, i)
				}
				if miss {
					missed++
				}
				if got.Size() == w.Star.NumNodes() {
					whole++
				}
			}
		}
	}
	if missed == 0 || whole == 0 {
		t.Fatalf("%d missed and %d whole-world compiles: the rects must include both", missed, whole)
	}
}

func TestApproximateCountsBracketExact(t *testing.T) {
	// End-to-end with a real workload: lower count ≤ exact ≤ upper count
	// for snapshot queries (monotone counting over nested junction sets
	// does not hold in general for net flows, but occupancy is monotone).
	w := testWorld(t, 17)
	rng := rand.New(rand.NewSource(18))
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 120, Horizon: 20000, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 300, LeaveProb: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	if err := wl.Feed(st); err != nil {
		t.Fatal(err)
	}
	g, err := Build(w, selectSensors(t, w, 40, 19), Options{Connect: Triangulation})
	if err != nil {
		t.Fatal(err)
	}
	b := w.Bounds()
	for trial := 0; trial < 30; trial++ {
		rect := geom.RectWH(
			b.Min.X+rng.Float64()*b.Width()/3,
			b.Min.Y+rng.Float64()*b.Height()/3,
			b.Width()*0.4, b.Height()*0.4)
		exact, err := core.NewRegion(w, w.JunctionsIn(rect))
		if err != nil {
			t.Fatal(err)
		}
		lower, _, lmiss, _ := g.ApproximateRect(rect, Lower)
		upper, _, _, _ := g.ApproximateRect(rect, Upper)
		ts := rng.Float64() * wl.Horizon
		exactC := core.SnapshotCount(st, exact, ts)
		upperC := core.SnapshotCount(st, upper, ts)
		if upperC < exactC {
			t.Fatalf("upper count %v < exact %v", upperC, exactC)
		}
		if !lmiss {
			lowerC := core.SnapshotCount(st, lower, ts)
			if lowerC > exactC {
				t.Fatalf("lower count %v > exact %v", lowerC, exactC)
			}
		}
	}
}

func TestBuildFromDualEdges(t *testing.T) {
	w := testWorld(t, 21)
	// Use the boundary of a small junction region as the dual edge set.
	b := w.Bounds()
	rect := geom.RectWH(b.Min.X, b.Min.Y, b.Width()/2, b.Height()/2)
	r, err := core.NewRegion(w, w.JunctionsIn(rect))
	if err != nil {
		t.Fatal(err)
	}
	var des []planar.EdgeID
	for _, cr := range r.CutRoads() {
		if de := w.Dual.EdgeOf[cr.Road]; de != planar.NoEdge {
			des = append(des, de)
		}
	}
	g, err := BuildFromDualEdges(w, des)
	if err != nil {
		t.Fatal(err)
	}
	// The region itself must now be exactly representable: its cluster
	// union lower approximation equals it up to bridge-road leakage.
	lower, _, miss, err := g.ApproximateRect(rect, Lower)
	if err != nil {
		t.Fatal(err)
	}
	if miss {
		t.Fatal("region built from its own boundary missed")
	}
	if lower.Size() == 0 || lower.Size() > r.Size() {
		t.Errorf("lower size = %d, exact = %d", lower.Size(), r.Size())
	}
}

func TestCachedCutRoadsMatchScan(t *testing.T) {
	// ApproximateRect precomputes the perimeter from the monitored
	// edges; it must equal the full region scan exactly.
	w := testWorld(t, 23)
	g, err := Build(w, selectSensors(t, w, 30, 24), Options{Connect: Triangulation})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	b := w.Bounds()
	for trial := 0; trial < 20; trial++ {
		rect := geom.RectWH(
			b.Min.X+rng.Float64()*b.Width()/2,
			b.Min.Y+rng.Float64()*b.Height()/2,
			b.Width()*0.4, b.Height()*0.4)
		for _, bound := range []Bound{Lower, Upper} {
			approx, _, miss, err := g.ApproximateRect(rect, bound)
			if err != nil {
				t.Fatal(err)
			}
			if miss {
				continue
			}
			cached := approx.CutRoads()
			// Rebuild the same region without the cache.
			fresh, err := core.NewRegion(w, approx.Junctions())
			if err != nil {
				t.Fatal(err)
			}
			scanned := fresh.CutRoads()
			if !sameCutSet(cached, scanned) {
				t.Fatalf("%v: cached perimeter (%d) != scanned (%d)",
					bound, len(cached), len(scanned))
			}
		}
	}
}

func sameCutSet(a, b []core.CutRoad) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[core.CutRoad]bool, len(a))
	for _, c := range a {
		set[c] = true
	}
	for _, c := range b {
		if !set[c] {
			return false
		}
	}
	return true
}

func TestConnectivityString(t *testing.T) {
	if Triangulation.String() != "triangulation" || KNN.String() != "knn" {
		t.Error("Connectivity.String wrong")
	}
	if Lower.String() != "lower" || Upper.String() != "upper" {
		t.Error("Bound.String wrong")
	}
}
