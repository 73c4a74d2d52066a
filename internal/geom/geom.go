// Package geom provides the 2-D geometric primitives used throughout the
// library: points, rectangles, segments and polygons, together with the
// robust-enough predicates (orientation, segment intersection, point in
// polygon) required for triangulation, face geometry and spatial sampling.
//
// All coordinates are float64 in an arbitrary planar coordinate system
// (the synthetic cities use abstract units; callers may interpret them as
// meters or kilometers).
package geom

import (
	"fmt"
	"math"
	"sort"
)

// Eps is the tolerance used by the approximate predicates in this package.
// Coordinates in this library are O(1e4) at most, so 1e-9 is far below any
// meaningful geometric distinction while still absorbing float error.
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Cross returns the z component of the cross product p×q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance from p to q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance from p to q. It avoids the
// square root and is the preferred comparison key in hot paths.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Angle returns the angle of the vector from p to q in radians, in (−π, π].
func (p Point) Angle(q Point) float64 { return math.Atan2(q.Y-p.Y, q.X-p.X) }

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Orientation classifies the turn a→b→c.
type Orientation int

// The three possible orientations of an ordered point triple.
const (
	Collinear Orientation = iota
	Clockwise
	CounterClockwise
)

// Orient returns the orientation of the ordered triple (a, b, c).
func Orient(a, b, c Point) Orientation {
	v := b.Sub(a).Cross(c.Sub(a))
	switch {
	case v > Eps:
		return CounterClockwise
	case v < -Eps:
		return Clockwise
	default:
		return Collinear
	}
}

// Rect is an axis-aligned rectangle. A Rect with Min > Max on either axis
// is empty.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// RectWH returns the rectangle with lower-left corner (x, y), width w and
// height h.
func RectWH(x, y, w, h float64) Rect {
	return Rect{Min: Point{x, y}, Max: Point{x + w, y + h}}
}

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r, or 0 if r is empty.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Expand returns r grown by d on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// BoundingRect returns the smallest rectangle containing all pts. It
// returns an empty Rect when pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{Min: Point{1, 1}, Max: Point{0, 0}}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{a, b} }

// Intersection returns the proper intersection point of s and t and true
// when the two segments cross at a single interior or endpoint location.
// Parallel and collinear-overlap pairs return false.
func (s Segment) Intersection(t Segment) (Point, bool) {
	r := s.B.Sub(s.A)
	d := t.B.Sub(t.A)
	den := r.Cross(d)
	if math.Abs(den) <= Eps {
		return Point{}, false
	}
	diff := t.A.Sub(s.A)
	u := diff.Cross(d) / den
	v := diff.Cross(r) / den
	if u < -Eps || u > 1+Eps || v < -Eps || v > 1+Eps {
		return Point{}, false
	}
	return s.A.Add(r.Scale(u)), true
}

// Polygon is a simple polygon given by its vertices in order (either
// winding). The closing edge from the last vertex to the first is implied.
type Polygon []Point

// SignedArea returns the signed area of pg: positive when the vertices are
// in counter-clockwise order, negative when clockwise.
func (pg Polygon) SignedArea() float64 {
	if len(pg) < 3 {
		return 0
	}
	var a float64
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		a += p.Cross(q)
	}
	return a / 2
}

// Centroid returns the area centroid of pg. Degenerate (zero-area)
// polygons fall back to the vertex average.
func (pg Polygon) Centroid() Point {
	if len(pg) == 0 {
		return Point{}
	}
	a := pg.SignedArea()
	if math.Abs(a) <= Eps {
		var c Point
		for _, p := range pg {
			c = c.Add(p)
		}
		return c.Scale(1 / float64(len(pg)))
	}
	var cx, cy float64
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		w := p.Cross(q)
		cx += (p.X + q.X) * w
		cy += (p.Y + q.Y) * w
	}
	f := 1 / (6 * a)
	return Point{cx * f, cy * f}
}

// Contains reports whether p lies strictly inside pg, using the even-odd
// ray-casting rule. Points exactly on the boundary may be classified either
// way; callers that care use DistToBoundary.
func (pg Polygon) Contains(p Point) bool {
	in := false
	n := len(pg)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		pi, pj := pg[i], pg[j]
		if (pi.Y > p.Y) != (pj.Y > p.Y) {
			x := pj.X + (p.Y-pj.Y)/(pi.Y-pj.Y)*(pi.X-pj.X)
			if p.X < x {
				in = !in
			}
		}
	}
	return in
}

// ConvexHull returns the convex hull of pts in counter-clockwise order
// using Andrew's monotone chain. The input slice is not modified. Fewer
// than three distinct points yield the distinct points themselves.
func ConvexHull(pts []Point) []Point {
	n := len(pts)
	if n < 3 {
		out := make([]Point, n)
		copy(out, pts)
		return out
	}
	sorted := make([]Point, n)
	copy(sorted, pts)
	// Sort by (X, Y).
	sortPoints(sorted)
	hull := make([]Point, 0, 2*n)
	// Lower hull.
	for _, p := range sorted {
		for len(hull) >= 2 && Orient(hull[len(hull)-2], hull[len(hull)-1], p) != CounterClockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		p := sorted[i]
		for len(hull) >= lower && Orient(hull[len(hull)-2], hull[len(hull)-1], p) != CounterClockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

func sortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
}
