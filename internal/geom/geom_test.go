package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
	if got := Pt(0, 0).Dist(Pt(3, 4)); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := Pt(0, 0).Dist2(Pt(3, 4)); got != 25 {
		t.Errorf("Dist2 = %v", got)
	}
	if got := p.Lerp(q, 0.5); got != Pt(2, -1) {
		t.Errorf("Lerp = %v", got)
	}
}

func TestOrient(t *testing.T) {
	a, b := Pt(0, 0), Pt(1, 0)
	if got := Orient(a, b, Pt(0, 1)); got != CounterClockwise {
		t.Errorf("left turn = %v", got)
	}
	if got := Orient(a, b, Pt(0, -1)); got != Clockwise {
		t.Errorf("right turn = %v", got)
	}
	if got := Orient(a, b, Pt(2, 0)); got != Collinear {
		t.Errorf("collinear = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(2, 3), Pt(0, 1))
	if r.Min != Pt(0, 1) || r.Max != Pt(2, 3) {
		t.Fatalf("NewRect normalization: %v", r)
	}
	if r.Area() != 4 {
		t.Errorf("Area = %v", r.Area())
	}
	if r.Center() != Pt(1, 2) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(Pt(1, 2)) || r.Contains(Pt(3, 2)) {
		t.Error("Contains wrong")
	}
	if !r.Contains(r.Min) || !r.Contains(r.Max) {
		t.Error("boundary should be inclusive")
	}
	s := RectWH(1, 1, 5, 5)
	if !r.Intersects(s) {
		t.Error("should intersect")
	}
	if !RectWH(0, 0, 10, 10).ContainsRect(r) {
		t.Error("ContainsRect wrong")
	}
	if !r.Expand(1).Contains(Pt(-0.5, 0.5)) {
		t.Error("Expand wrong")
	}
}

func TestEmptyRect(t *testing.T) {
	e := Rect{Min: Pt(1, 1), Max: Pt(0, 0)}
	if !e.Empty() {
		t.Error("should be empty")
	}
	if e.Area() != 0 {
		t.Errorf("empty area = %v", e.Area())
	}
	if got := BoundingRect(nil); !got.Empty() {
		t.Errorf("BoundingRect(nil) = %v not empty", got)
	}
}

func TestRectIntersectDisjoint(t *testing.T) {
	a := RectWH(0, 0, 1, 1)
	b := RectWH(5, 5, 1, 1)
	if a.Intersects(b) {
		t.Error("disjoint rects intersect")
	}
}

func TestSegmentIntersection(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(2, 2))
	u := Seg(Pt(0, 2), Pt(2, 0))
	p, ok := s.Intersection(u)
	if !ok || !p.Eq(Pt(1, 1)) {
		t.Fatalf("Intersection = %v, %v", p, ok)
	}
	// Parallel: no intersection.
	v := Seg(Pt(0, 1), Pt(2, 3))
	if _, ok := s.Intersection(v); ok {
		t.Error("parallel segments intersected")
	}
	// Disjoint.
	w := Seg(Pt(5, 5), Pt(6, 6))
	if _, ok := s.Intersection(w); ok {
		t.Error("disjoint segments intersect")
	}
	// Shared endpoint.
	x := Seg(Pt(2, 2), Pt(3, 0))
	if p, ok := s.Intersection(x); !ok || !p.Eq(Pt(2, 2)) {
		t.Errorf("endpoint intersection = %v, %v", p, ok)
	}
}

func TestPolygonAreaCentroid(t *testing.T) {
	sq := Polygon{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if got := sq.SignedArea(); got != 4 {
		t.Errorf("CCW area = %v", got)
	}
	if got := sq.Centroid(); !got.Eq(Pt(1, 1)) {
		t.Errorf("Centroid = %v", got)
	}
	rev := Polygon{Pt(0, 2), Pt(2, 2), Pt(2, 0), Pt(0, 0)}
	if got := rev.SignedArea(); got != -4 {
		t.Errorf("CW area = %v", got)
	}
}

func TestPolygonContains(t *testing.T) {
	tri := Polygon{Pt(0, 0), Pt(4, 0), Pt(0, 4)}
	if !tri.Contains(Pt(1, 1)) {
		t.Error("interior point not contained")
	}
	if tri.Contains(Pt(3, 3)) {
		t.Error("exterior point contained")
	}
	if tri.Contains(Pt(-1, 1)) {
		t.Error("left exterior point contained")
	}
}

func TestConvexHull(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4), Pt(2, 2), Pt(1, 3)}
	h := ConvexHull(pts)
	if len(h) != 4 {
		t.Fatalf("hull size = %d, want 4 (%v)", len(h), h)
	}
	if Polygon(h).SignedArea() <= 0 {
		t.Error("hull not CCW")
	}
}

func TestConvexHullProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(r.Float64()*100, r.Float64()*100)
		}
		h := ConvexHull(pts)
		if len(h) < 3 {
			return false
		}
		hull := Polygon(h)
		// Every input point is inside or on the hull.
		for _, p := range pts {
			if hull.Contains(p) {
				continue
			}
			onEdge := false
			for i := range h {
				a, b := h[i], h[(i+1)%len(h)]
				if Orient(a, b, p) == Collinear && NewRect(a, b).Expand(1e-6).Contains(p) {
					onEdge = true
					break
				}
			}
			if !onEdge {
				return false
			}
		}
		// Hull is convex: all turns CCW or collinear.
		for i := range h {
			a, b, c := h[i], h[(i+1)%len(h)], h[(i+2)%len(h)]
			if Orient(a, b, c) == Clockwise {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestSegmentIntersectionProperty(t *testing.T) {
	// If Intersection reports a point, that point is within both bounding
	// boxes and (approximately) on both support lines.
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		norm := func(v float64) float64 { return math.Mod(math.Abs(v), 100) }
		s := Seg(Pt(norm(ax), norm(ay)), Pt(norm(bx), norm(by)))
		u := Seg(Pt(norm(cx), norm(cy)), Pt(norm(dx), norm(dy)))
		p, ok := s.Intersection(u)
		if !ok {
			return true
		}
		tol := 1e-6
		onBoth := true
		for _, g := range []Segment{s, u} {
			d := g.B.Sub(g.A)
			onBoth = onBoth && NewRect(g.A, g.B).Expand(tol).Contains(p) &&
				math.Abs(d.Cross(p.Sub(g.A))) < tol*d.Norm()
		}
		return onBoth
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{Pt(3, 1), Pt(-1, 5), Pt(2, 2)}
	r := BoundingRect(pts)
	if r.Min != Pt(-1, 1) || r.Max != Pt(3, 5) {
		t.Errorf("BoundingRect = %v", r)
	}
}

func TestAngle(t *testing.T) {
	if got := Pt(0, 0).Angle(Pt(1, 0)); got != 0 {
		t.Errorf("east angle = %v", got)
	}
	if got := Pt(0, 0).Angle(Pt(0, 1)); math.Abs(got-math.Pi/2) > Eps {
		t.Errorf("north angle = %v", got)
	}
}
