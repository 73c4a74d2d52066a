package roadnet

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/planar"
)

func TestGridCity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w, err := GridCity(DefaultGridOpts(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Star.Connected() {
		t.Fatal("mobility graph disconnected")
	}
	if err := w.Star.CheckEuler(w.Dual.FS); err != nil {
		t.Fatal(err)
	}
	if w.NumSensors() != len(w.Dual.FS.Faces)-1 {
		t.Errorf("sensors = %d, faces-1 = %d", w.NumSensors(), len(w.Dual.FS.Faces)-1)
	}
	if len(w.Gateways) < 4 {
		t.Errorf("gateways = %d, want several", len(w.Gateways))
	}
	// Gateways must lie on the domain boundary region (outer face walk).
	b := w.Bounds()
	for _, g := range w.Gateways {
		p := w.Star.Point(g)
		if !b.Contains(p) {
			t.Errorf("gateway %d at %v outside bounds", g, p)
		}
	}
}

func TestGridCityValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GridCity(GridOpts{NX: 1, NY: 5, Spacing: 10}, rng); err == nil {
		t.Error("1-wide grid accepted")
	}
	if _, err := GridCity(GridOpts{NX: 4, NY: 4, Spacing: 10, Jitter: 0.9}, rng); err == nil {
		t.Error("excessive jitter accepted")
	}
}

func TestRadialCity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w, err := RadialCity(RadialOpts{Rings: 5, Spokes: 10, RingGap: 50, SkipFrac: 0.2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Star.Connected() {
		t.Fatal("disconnected")
	}
	if err := w.Star.CheckEuler(w.Dual.FS); err != nil {
		t.Fatal(err)
	}
	// Outer ring intact: gateways = spokes.
	if len(w.Gateways) != 10 {
		t.Errorf("gateways = %d, want 10", len(w.Gateways))
	}
}

func TestRadialCityValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := RadialCity(RadialOpts{Rings: 0, Spokes: 8, RingGap: 10}, rng); err == nil {
		t.Error("0 rings accepted")
	}
	if _, err := RadialCity(RadialOpts{Rings: 3, Spokes: 2, RingGap: 10}, rng); err == nil {
		t.Error("2 spokes accepted")
	}
}

func TestRandomCity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w, err := RandomCity(RandomOpts{N: 120, Size: 1000, RemoveFrac: 0.25}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Star.Connected() {
		t.Fatal("disconnected")
	}
	if err := w.Star.CheckEuler(w.Dual.FS); err != nil {
		t.Fatal(err)
	}
	if w.NumJunctions() != 120 {
		t.Errorf("junctions = %d, want 120", w.NumJunctions())
	}
}

func TestJunctionsIn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w, err := GridCity(GridOpts{NX: 8, NY: 8, Spacing: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	all := w.JunctionsIn(w.Bounds())
	if len(all) != w.NumJunctions() {
		t.Errorf("full-domain query = %d, want %d", len(all), w.NumJunctions())
	}
	none := w.JunctionsIn(w.Bounds().Expand(-10000))
	if len(none) != 0 {
		t.Errorf("empty-rect query = %d, want 0", len(none))
	}
	// A quarter rect holds roughly a quarter of the junctions.
	b := w.Bounds()
	quarter := w.JunctionsIn(planarRect(b.Min.X, b.Min.Y, b.Width()/2, b.Height()/2))
	if len(quarter) < 9 || len(quarter) > 30 {
		t.Errorf("quarter rect = %d junctions, expected ≈16", len(quarter))
	}
}

// TestRangeQueriesMatchLinearScan: the kd-tree-backed JunctionsIn and
// SensorsIn must return exactly the nodes (and the ascending order) the
// pre-index linear scans produced, across random rects including
// degenerate and out-of-bounds ones.
func TestRangeQueriesMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, build := range []func() (*World, error){
		func() (*World, error) {
			return GridCity(GridOpts{NX: 12, NY: 10, Spacing: 25, Jitter: 0.3, RemoveFrac: 0.2, CurveFrac: 0.2}, rng)
		},
		func() (*World, error) {
			return RandomCity(RandomOpts{N: 80, Size: 500, RemoveFrac: 0.2}, rng)
		},
	} {
		w, err := build()
		if err != nil {
			t.Fatal(err)
		}
		b := w.Bounds()
		rects := []geom.Rect{
			b,
			b.Expand(100),
			planarRect(b.Min.X-50, b.Min.Y-50, 10, 10), // fully outside
			planarRect(b.Center().X, b.Center().Y, 0, 0),
		}
		for i := 0; i < 40; i++ {
			rects = append(rects, planarRect(
				b.Min.X+rng.Float64()*b.Width(),
				b.Min.Y+rng.Float64()*b.Height(),
				rng.Float64()*b.Width(), rng.Float64()*b.Height()))
		}
		for _, rect := range rects {
			gotJ := w.JunctionsIn(rect)
			var wantJ []planar.NodeID
			for n := 0; n < w.Star.NumNodes(); n++ {
				if rect.Contains(w.Star.Point(planar.NodeID(n))) {
					wantJ = append(wantJ, planar.NodeID(n))
				}
			}
			if !equalIDs(gotJ, wantJ) {
				t.Fatalf("JunctionsIn(%v) = %v, linear scan = %v", rect, gotJ, wantJ)
			}
			gotS := w.SensorsIn(rect)
			var wantS []planar.NodeID
			for n := 0; n < w.Dual.G.NumNodes(); n++ {
				if planar.NodeID(n) == w.Dual.OuterNode {
					continue
				}
				if rect.Contains(w.Dual.G.Point(planar.NodeID(n))) {
					wantS = append(wantS, planar.NodeID(n))
				}
			}
			if !equalIDs(gotS, wantS) {
				t.Fatalf("SensorsIn(%v) = %v, linear scan = %v", rect, gotS, wantS)
			}
		}
	}
}

func equalIDs(a, b []planar.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSensorsIn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w, err := GridCity(GridOpts{NX: 6, NY: 6, Spacing: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	all := w.SensorsIn(w.Bounds())
	if len(all) != w.NumSensors() {
		t.Errorf("sensors in bounds = %d, want all %d", len(all), w.NumSensors())
	}
	for _, s := range all {
		if s == w.Dual.OuterNode {
			t.Error("outer node reported as sensor")
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := GridCity(DefaultGridOpts(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GridCity(DefaultGridOpts(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumJunctions() != b.NumJunctions() || a.NumRoads() != b.NumRoads() {
		t.Error("same seed produced different cities")
	}
}

func TestBuildWorldRejectsDisconnected(t *testing.T) {
	g := planarGraph2Islands()
	if _, err := BuildWorld(g); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func planarRect(x, y, w, h float64) geom.Rect {
	return geom.RectWH(x, y, w, h)
}

func planarGraph2Islands() *planar.Graph {
	g := planar.NewGraph(6, 6)
	for i := 0; i < 6; i++ {
		g.AddNode(geom.Pt(float64(i%3)*10+float64(i/3)*100, float64(i%2)*10))
	}
	mustAdd(g, 0, 1)
	mustAdd(g, 1, 2)
	mustAdd(g, 2, 0)
	mustAdd(g, 3, 4)
	mustAdd(g, 4, 5)
	mustAdd(g, 5, 3)
	return g
}

func mustAdd(g *planar.Graph, u, v planar.NodeID) {
	if _, err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}
