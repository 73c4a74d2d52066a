// Package roadnet provides the mobility-domain substrate: synthetic planar
// road networks standing in for the paper's Beijing OSM graph, the dual
// sensing graph, and the World type that bundles both for the rest of the
// framework.
//
// The paper evaluates on a real city map; this repository substitutes
// generators that produce planar "cities" with the properties the
// algorithms actually consume — irregular faces, curved (subdivided)
// roads, dead space between roads, and boundary gateways through which
// objects enter and leave (the paper's ★v_ext infinity node). See
// DESIGN.md §3 for the substitution rationale.
package roadnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/planar"
)

// World bundles the mobility graph ★G, its dual sensing graph G, and the
// gateway junctions. It is immutable after construction and safe for
// concurrent readers.
type World struct {
	// Star is the mobility graph ★G: nodes are junctions, edges are
	// roads. Objects move along its edges.
	Star *planar.Graph
	// Dual is the sensing graph G = dual(★G): nodes are sensors (one per
	// city block / ★G face), edges cross roads.
	Dual *planar.Dual
	// Gateways are the junctions on the outer face of ★G, in boundary
	// walk order; objects enter and leave the world through them (the
	// ★v_ext mechanism).
	Gateways []planar.NodeID
	// gateway[j] reports whether junction j is a gateway, and ascending
	// lists the gateways in ascending order (see IsGateway).
	gateway   []bool
	ascending []planar.NodeID
	// ends[e] is the (tail, head) pair of tracked edge e of the closed
	// graph (see TrackedEnds).
	ends [][2]planar.NodeID
	// junctionIdx and sensorIdx are kd-trees over junction and sensor
	// locations, built once at construction; they back the per-query
	// range lookups of JunctionsIn and SensorsIn.
	junctionIdx *index.KDTree
	sensorIdx   *index.KDTree
}

// BuildWorld derives the dual and gateways from a finished mobility graph.
func BuildWorld(star *planar.Graph) (*World, error) {
	if !star.Connected() {
		return nil, fmt.Errorf("roadnet: mobility graph is not connected")
	}
	d, err := planar.BuildDual(star)
	if err != nil {
		return nil, fmt.Errorf("roadnet: building dual: %w", err)
	}
	outer := &d.FS.Faces[d.FS.Outer()]
	seen := make(map[planar.NodeID]bool)
	var gws []planar.NodeID
	for _, n := range outer.Nodes(star) {
		if !seen[n] {
			seen[n] = true
			gws = append(gws, n)
		}
	}
	w := &World{Star: star, Dual: d, Gateways: gws, gateway: make([]bool, star.NumNodes())}
	for _, g := range gws {
		w.gateway[g] = true
	}
	w.ascending = slices.Clone(gws)
	slices.Sort(w.ascending)
	w.ends = make([][2]planar.NodeID, 0, w.NumTrackedEdges())
	for _, e := range star.Edges() {
		w.ends = append(w.ends, [2]planar.NodeID{e.U, e.V})
	}
	for j := 0; j < star.NumNodes(); j++ {
		w.ends = append(w.ends, [2]planar.NodeID{w.Ext(), planar.NodeID(j)})
	}
	jItems := make([]index.Item, star.NumNodes())
	for n := range jItems {
		jItems[n] = index.Item{ID: n, P: star.Point(planar.NodeID(n))}
	}
	w.junctionIdx = index.BuildKDTree(jItems)
	var sItems []index.Item
	for n := 0; n < d.G.NumNodes(); n++ {
		if planar.NodeID(n) == d.OuterNode {
			continue
		}
		sItems = append(sItems, index.Item{ID: n, P: d.G.Point(planar.NodeID(n))})
	}
	w.sensorIdx = index.BuildKDTree(sItems)
	return w, nil
}

// NumJunctions returns the number of junctions in the mobility graph.
func (w *World) NumJunctions() int { return w.Star.NumNodes() }

// NumRoads returns the number of roads in the mobility graph.
func (w *World) NumRoads() int { return w.Star.NumEdges() }

// The closed graph. The paper closes the world with one virtual node
// ★v_ext so that entering and leaving are edge crossings like any other
// (§2): ★v_ext takes the node id after the last junction, and junction
// j's world edge ★v_ext→j the edge id NumRoads()+j. Roads and world
// edges together are the tracked edges — the ids a tracking-form store
// is indexed by. ★v_ext meets the gateways only: every junction keeps
// its id slot, but only a gateway's world edge exists, so only a
// gateway carries Enter and Leave events. This is the one place that
// knows the numbering and which world edges exist.

// Ext returns the node id of ★v_ext.
func (w *World) Ext() planar.NodeID { return planar.NodeID(w.Star.NumNodes()) }

// NumTrackedEdges returns the number of edges of the closed graph: the
// roads followed by one world edge per junction.
func (w *World) NumTrackedEdges() int { return w.Star.NumEdges() + w.Star.NumNodes() }

// WorldEdge returns the tracked-edge id of junction j's world edge.
func (w *World) WorldEdge(j planar.NodeID) planar.EdgeID {
	return planar.EdgeID(w.Star.NumEdges() + int(j))
}

// IsGateway reports whether junction j is a gateway: whether its world
// edge exists. Out-of-range ids are not gateways.
func (w *World) IsGateway(j planar.NodeID) bool {
	return j >= 0 && int(j) < len(w.gateway) && w.gateway[j]
}

// AscendingGateways returns the gateways in ascending order. Callers
// must not modify the returned slice.
func (w *World) AscendingGateways() []planar.NodeID { return w.ascending }

// TrackedEnds returns the two ends of tracked edge e, from one table
// for roads and world edges alike: a road's (U, V), a world edge's
// (★v_ext, junction). A crossing toward head is the edge's forward
// direction — for a world edge, an entry.
func (w *World) TrackedEnds(e planar.EdgeID) (tail, head planar.NodeID) {
	ends := w.ends[e]
	return ends[0], ends[1]
}

// NumSensors returns the number of candidate sensor locations, i.e. dual
// nodes excluding the outer face.
func (w *World) NumSensors() int { return w.Dual.G.NumNodes() - 1 }

// Bounds returns the bounding rectangle of the mobility graph.
func (w *World) Bounds() geom.Rect { return w.Star.Bounds() }

// JunctionsIn returns the junctions whose location lies inside r: the
// paper's query region Q_R expressed as a union of sensing-graph faces
// (one face per junction by vertex–face duality). The lookup descends
// the construction-time kd-tree — O(√n + k) instead of scanning every
// junction — and returns IDs in ascending order, matching the linear
// scan it replaced.
func (w *World) JunctionsIn(r geom.Rect) []planar.NodeID {
	return rangeIDs(w.junctionIdx, r)
}

// SensorsIn returns the sensing-graph nodes (excluding the outer node)
// whose location lies inside r. Used for the flooding cost of centralized
// baselines. Indexed like JunctionsIn.
func (w *World) SensorsIn(r geom.Rect) []planar.NodeID {
	return rangeIDs(w.sensorIdx, r)
}

// rangeIDs runs a kd-tree range query and returns the hit IDs in
// ascending order (the order the pre-index linear scans produced, which
// downstream float accumulations are sensitive to).
func rangeIDs(t *index.KDTree, r geom.Rect) []planar.NodeID {
	out := index.RangeIDs[planar.NodeID](t, r, nil)
	slices.Sort(out)
	return out
}

// GridOpts configures GridCity.
type GridOpts struct {
	// NX, NY are the junction counts per axis (≥ 2 each).
	NX, NY int
	// Spacing is the nominal distance between adjacent junctions.
	Spacing float64
	// Jitter displaces interior junctions by up to Jitter·Spacing in each
	// axis, producing the irregular, non-axis-aligned blocks real cities
	// have. Must be < 0.5 to preserve planarity.
	Jitter float64
	// RemoveFrac removes this fraction of non-boundary, non-bridge roads,
	// creating larger irregular blocks (dead space).
	RemoveFrac float64
	// CurveFrac subdivides this fraction of remaining roads with an
	// offset midpoint, modelling curved roads (degree-2 contour nodes).
	CurveFrac float64
}

// DefaultGridOpts returns the configuration used by the experiment
// harness: a mid-sized irregular city.
func DefaultGridOpts() GridOpts {
	return GridOpts{NX: 24, NY: 24, Spacing: 100, Jitter: 0.30, RemoveFrac: 0.22, CurveFrac: 0.15}
}

// GridCity generates a jittered grid city. The outer boundary ring is
// always kept intact so that the outer face is well defined and gateways
// exist on all sides.
func GridCity(opts GridOpts, rng *rand.Rand) (*World, error) {
	if opts.NX < 2 || opts.NY < 2 {
		return nil, fmt.Errorf("roadnet: grid needs at least 2x2 junctions, got %dx%d", opts.NX, opts.NY)
	}
	if opts.Jitter < 0 || opts.Jitter >= 0.5 {
		return nil, fmt.Errorf("roadnet: jitter %v out of [0, 0.5)", opts.Jitter)
	}
	g := planar.NewGraph(opts.NX*opts.NY, opts.NX*opts.NY*2)
	id := func(x, y int) planar.NodeID { return planar.NodeID(y*opts.NX + x) }
	for y := 0; y < opts.NY; y++ {
		for x := 0; x < opts.NX; x++ {
			px := float64(x) * opts.Spacing
			py := float64(y) * opts.Spacing
			if x > 0 && x < opts.NX-1 && y > 0 && y < opts.NY-1 {
				px += (rng.Float64()*2 - 1) * opts.Jitter * opts.Spacing
				py += (rng.Float64()*2 - 1) * opts.Jitter * opts.Spacing
			}
			g.AddNode(geom.Pt(px, py))
		}
	}
	boundary := func(x, y int) bool {
		return x == 0 || y == 0 || x == opts.NX-1 || y == opts.NY-1
	}
	var cands []cand2
	for y := 0; y < opts.NY; y++ {
		for x := 0; x < opts.NX; x++ {
			if x+1 < opts.NX {
				req := boundary(x, y) && boundary(x+1, y) && (y == 0 || y == opts.NY-1)
				cands = append(cands, cand2{id(x, y), id(x+1, y), req})
			}
			if y+1 < opts.NY {
				req := boundary(x, y) && boundary(x, y+1) && (x == 0 || x == opts.NX-1)
				cands = append(cands, cand2{id(x, y), id(x, y+1), req})
			}
		}
	}
	edges := thinEdges2(g.NumNodes(), cands, opts.RemoveFrac, rng)
	for _, e := range edges {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	g, err := curveRoads(g, opts.CurveFrac, opts.Spacing*0.18, rng)
	if err != nil {
		return nil, err
	}
	return BuildWorld(g)
}

// RadialOpts configures RadialCity.
type RadialOpts struct {
	// Rings is the number of concentric rings (≥ 1).
	Rings int
	// Spokes is the number of radial roads (≥ 3).
	Spokes int
	// RingGap is the radial distance between consecutive rings.
	RingGap float64
	// SkipFrac removes this fraction of interior ring segments and
	// spokes (the outermost ring is kept intact).
	SkipFrac float64
}

// RadialCity generates a ring-and-spoke city (a common European layout):
// concentric rings crossed by radial roads, with a centre junction.
func RadialCity(opts RadialOpts, rng *rand.Rand) (*World, error) {
	if opts.Rings < 1 || opts.Spokes < 3 {
		return nil, fmt.Errorf("roadnet: radial city needs ≥1 ring and ≥3 spokes")
	}
	g := planar.NewGraph(opts.Rings*opts.Spokes+1, opts.Rings*opts.Spokes*2)
	center := g.AddNode(geom.Pt(0, 0))
	id := make([][]planar.NodeID, opts.Rings)
	for r := 0; r < opts.Rings; r++ {
		id[r] = make([]planar.NodeID, opts.Spokes)
		rad := float64(r+1) * opts.RingGap
		for s := 0; s < opts.Spokes; s++ {
			th := 2 * math.Pi * float64(s) / float64(opts.Spokes)
			id[r][s] = g.AddNode(geom.Pt(rad*math.Cos(th), rad*math.Sin(th)))
		}
	}
	var cands []cand2
	for s := 0; s < opts.Spokes; s++ {
		cands = append(cands, cand2{center, id[0][s], false})
		for r := 0; r+1 < opts.Rings; r++ {
			cands = append(cands, cand2{id[r][s], id[r+1][s], false})
		}
	}
	for r := 0; r < opts.Rings; r++ {
		for s := 0; s < opts.Spokes; s++ {
			// Outermost ring is required so the outer face is the ring.
			cands = append(cands, cand2{id[r][s], id[r][(s+1)%opts.Spokes], r == opts.Rings-1})
		}
	}
	edges := thinEdges2(g.NumNodes(), cands, opts.SkipFrac, rng)
	for _, e := range edges {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return BuildWorld(g)
}

// RandomOpts configures RandomCity.
type RandomOpts struct {
	// N is the number of junctions.
	N int
	// Size is the side length of the square domain.
	Size float64
	// RemoveFrac thins this fraction of non-hull Delaunay edges.
	RemoveFrac float64
}

// RandomCity generates a city from a Delaunay triangulation of random
// junctions, thinned to road density. Hull edges are kept so the boundary
// is a cycle.
func RandomCity(opts RandomOpts, rng *rand.Rand) (*World, error) {
	if opts.N < 4 {
		return nil, fmt.Errorf("roadnet: random city needs ≥4 junctions, got %d", opts.N)
	}
	pts := make([]geom.Point, opts.N)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*opts.Size, rng.Float64()*opts.Size)
	}
	tris, err := delaunay.Triangulate(pts)
	if err != nil {
		return nil, fmt.Errorf("roadnet: triangulating junctions: %w", err)
	}
	hull := geom.ConvexHull(pts)
	onHull := make(map[[2]int64]bool, len(hull))
	key := func(p geom.Point) [2]int64 {
		return [2]int64{int64(math.Round(p.X * 1e6)), int64(math.Round(p.Y * 1e6))}
	}
	for _, h := range hull {
		onHull[key(h)] = true
	}
	g := planar.NewGraph(opts.N, opts.N*3)
	for _, p := range pts {
		g.AddNode(p)
	}
	var cands []cand2
	for _, e := range delaunay.Edges(tris) {
		req := onHull[key(pts[e.U])] && onHull[key(pts[e.V])]
		cands = append(cands, cand2{planar.NodeID(e.U), planar.NodeID(e.V), req})
	}
	edges := thinEdges2(opts.N, cands, opts.RemoveFrac, rng)
	for _, e := range edges {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return BuildWorld(g)
}

// cand2 is a candidate road: required roads survive thinning.
type cand2 struct {
	u, v     planar.NodeID
	required bool
}

// thinEdges2 keeps all required edges plus a random spanning tree, then
// retains each remaining candidate with probability 1−removeFrac. The
// result is always connected.
func thinEdges2(n int, cands []cand2, removeFrac float64, rng *rand.Rand) [][2]planar.NodeID {
	uf := newUnionFind(n)
	keep := make([]bool, len(cands))
	// Pass 1: required edges.
	for i, c := range cands {
		if c.required {
			keep[i] = true
			uf.union(int(c.u), int(c.v))
		}
	}
	// Pass 2: spanning tree over the rest, in random order.
	order := rng.Perm(len(cands))
	for _, i := range order {
		c := cands[i]
		if keep[i] {
			continue
		}
		if uf.union(int(c.u), int(c.v)) {
			keep[i] = true
		}
	}
	// Pass 3: keep leftover edges with probability 1−removeFrac.
	var out [][2]planar.NodeID
	for i, c := range cands {
		if keep[i] || rng.Float64() >= removeFrac {
			out = append(out, [2]planar.NodeID{c.u, c.v})
		}
	}
	return out
}

// curveRoads subdivides a fraction of edges with a perpendicular-offset
// midpoint, modelling curved roads. The offset is small relative to
// spacing so planarity is preserved; the final graph is validated by the
// caller through BuildWorld's face extraction.
func curveRoads(g *planar.Graph, frac, offset float64, rng *rand.Rand) (*planar.Graph, error) {
	if frac <= 0 {
		return g, nil
	}
	ng := planar.NewGraph(g.NumNodes()*2, g.NumEdges()*2)
	for n := 0; n < g.NumNodes(); n++ {
		ng.AddNode(g.Point(planar.NodeID(n)))
	}
	for ei := 0; ei < g.NumEdges(); ei++ {
		e := g.Edge(planar.EdgeID(ei))
		if rng.Float64() >= frac {
			if _, err := ng.AddEdge(e.U, e.V); err != nil {
				return nil, err
			}
			continue
		}
		a, b := g.Point(e.U), g.Point(e.V)
		mid := a.Lerp(b, 0.5)
		dir := b.Sub(a)
		l := dir.Norm()
		if l <= geom.Eps {
			continue
		}
		perp := geom.Pt(-dir.Y/l, dir.X/l)
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		m := ng.AddNode(mid.Add(perp.Scale(sign * offset)))
		if _, err := ng.AddEdge(e.U, m); err != nil {
			return nil, err
		}
		if _, err := ng.AddEdge(m, e.V); err != nil {
			return nil, err
		}
	}
	return ng, nil
}

// unionFind is a standard disjoint-set forest with path halving.
type unionFind struct {
	parent []int
	rank   []byte
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]byte, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// union merges the sets of a and b, reporting whether they were distinct.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return true
}
