// Package sampled builds the paper's sampled sensing graph G̃ (§4.5) and
// answers region approximation queries on it (§4.6).
//
// Abstract edges between the selected communication sensors are generated
// by Delaunay triangulation or k-NN and then materialized as shortest
// paths inside the sensing graph G. Because paths stay inside the planar
// graph G, the materialized G̃ is automatically a planar subgraph of G —
// the paper's "insert intersection nodes" step happens for free at the
// shared path nodes.
//
// The faces of G̃ are computed in the dual: deleting the roads crossed by
// G̃'s sensing edges from the mobility graph ★G splits the junctions into
// connected clusters, and each cluster is one face of G̃ (deletion/
// contraction duality). Lower-bound query regions are unions of clusters
// fully inside Q_R; upper-bound regions are unions of clusters that
// intersect Q_R.
//
// A query is answered at face granularity, from face tables Build lays
// out once: the clusters numbered in the order of a uniform grid over
// the world, each with its bounding rect, its junctions, its points
// sorted by X, its gateways and its rows of the table of monitored roads
// between two clusters, whose rows name their two flanking sensors.
// ApproximateRect visits only the grid cells and clusters near the query
// rect, flips the rows of the included clusters in a bitset — a row
// left set is a cut — and emits the region's perimeter, perimeter
// sensors and junctions in one pass: its cost is the clusters and rows
// the rect reaches, independent of the world's size.
package sampled

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Connectivity selects how abstract edges between sensors are generated.
type Connectivity int

// Connectivity methods of §4.5.
const (
	// Triangulation connects sensors with Delaunay triangulation edges.
	Triangulation Connectivity = iota
	// KNN connects every sensor to its K nearest selected sensors.
	KNN
)

// String implements fmt.Stringer.
func (c Connectivity) String() string {
	switch c {
	case Triangulation:
		return "triangulation"
	case KNN:
		return "knn"
	}
	return fmt.Sprintf("Connectivity(%d)", int(c))
}

// Options configures Build.
type Options struct {
	Connect Connectivity
	// K is the neighbour count for KNN connectivity (default 3).
	K int
}

// Graph is the sampled sensing graph G̃ together with its face structure
// (junction clusters) over the world.
type Graph struct {
	W *roadnet.World
	// Sensors are the selected communication sensors Ṽ (dual nodes).
	Sensors []planar.NodeID
	// DualEdges are the sensing-graph edges of G̃ (paths included).
	DualEdges map[planar.EdgeID]bool
	// DualNodes are the sensing-graph nodes of G̃ (selected sensors plus
	// path intermediates).
	DualNodes map[planar.NodeID]bool
	// MonitoredRoads are the mobility edges crossed by G̃'s sensing
	// edges: exactly the roads whose tracking forms the sampled system
	// stores.
	MonitoredRoads []planar.EdgeID
	// clusterOf maps each junction to its cluster (face of G̃).
	clusterOf []int
	// clusters lists the junctions of each cluster, ascending: windows
	// of junctions.
	clusters [][]planar.NodeID
	// The face tables ApproximateRect reads, flat so that a compile walks
	// contiguous memory. Cluster id's record is faces[id] (faces ends
	// with a sentinel); its junctions are junctions[faces[id].at :
	// faces[id+1].at], its points, sorted by X, the same range of points,
	// the rows of between it is an end of, as words of the cut bitset
	// with those rows set, rows[faces[id].row : faces[id+1].row], and its
	// gateways gateways[faces[id].gw : faces[id+1].gw].
	faces     []face
	junctions []planar.NodeID
	points    []geom.Point
	rows      []rowWord
	gateways  []planar.NodeID
	// between lists the monitored roads whose ends lie in two clusters,
	// in MonitoredRoads order: the only roads that can cut a union of
	// clusters.
	between []betweenRoad
	// flanks are the distinct sensors flanking the rows of between,
	// which name them by index.
	flanks []planar.NodeID
	// grid is the cell structure the cluster ids follow.
	grid faceGrid
	// scratch pools *approxScratch sized to the tables, so concurrent
	// ApproximateRect calls build no per-query containers.
	scratch sync.Pool
}

// face is a cluster's record in the face tables: its bounding rect and
// where its windows of the flat tables start.
type face struct {
	box         geom.Rect
	at, row, gw int32
}

// rowWord is word w of the cut bitset with bits set: a cluster's rows
// that fall in that word.
type rowWord struct {
	w    int32
	bits uint64
}

// betweenRoad is a monitored road with its ends, the cluster of its
// first end, and the indexes in flanks of the sensors on either side of
// it (-1 for the outer face, which is no sensor).
type betweenRoad struct {
	road, u, v int32
	cu         int32
	fu, fv     int32
}

// faceGrid is a uniform grid over the world's bounding rect, about
// facesPerCell clusters a cell. Clusters are numbered in grid order, so
// a cell's clusters are one run of ids, off[c] to off[c+1], and box[c]
// bounds their rects; each sits in the cell of its rect's centre. A
// cluster whose rect spans more than three cells on an axis — the face
// outside G̃'s hull, whose rect is the world's — is wide: the wide ones
// take the ids below off[0], and every compile visits them. The others
// reach at most reachX / reachY cells from their own, so a compile
// visits the cells the rect meets grown by the reach, and only those.
type faceGrid struct {
	min            geom.Point
	invW, invH     float64 // cells per unit of length; 0 on a degenerate axis
	nx, ny         int
	reachX, reachY int
	off            []int32
	box            []geom.Rect
}

const facesPerCell = 4

// newFaceGrid sizes the grid for n clusters over world.
func newFaceGrid(world geom.Rect, n int) faceGrid {
	side := max(1, int(math.Ceil(math.Sqrt(float64(n)/facesPerCell))))
	f := faceGrid{min: world.Min, nx: side, ny: side}
	if world.Width() > 0 {
		f.invW = float64(side) / world.Width()
	}
	if world.Height() > 0 {
		f.invH = float64(side) / world.Height()
	}
	return f
}

// place returns the cell of a cluster with rect r, or -1 for a wide
// one, and widens the grid's reach to cover it.
func (f *faceGrid) place(r geom.Rect) int {
	x0, x1, y0, y1 := f.span(r)
	c := r.Center()
	cx := gridCell(c.X, f.min.X, f.invW, f.nx)
	cy := gridCell(c.Y, f.min.Y, f.invH, f.ny)
	if x1-x0 > 2 || y1-y0 > 2 {
		return -1
	}
	f.reachX = max(f.reachX, cx-x0, x1-cx)
	f.reachY = max(f.reachY, cy-y0, y1-cy)
	return cy*f.nx + cx
}

// span returns the range of cells r meets, clamped to the grid. Cell
// indices are monotone in the coordinate.
func (f *faceGrid) span(r geom.Rect) (x0, x1, y0, y1 int) {
	return gridCell(r.Min.X, f.min.X, f.invW, f.nx), gridCell(r.Max.X, f.min.X, f.invW, f.nx),
		gridCell(r.Min.Y, f.min.Y, f.invH, f.ny), gridCell(r.Max.Y, f.min.Y, f.invH, f.ny)
}

func gridCell(v, lo, inv float64, n int) int {
	c := (v - lo) * inv
	switch {
	case !(c >= 0): // below the grid, or NaN (an infinite corner times 0)
		return 0
	case c >= float64(n):
		return n - 1
	}
	return int(c)
}

// approxScratch is ApproximateRect's working set. in[id] == stamp means
// this call included cluster id, flanked[i] == stamp that it emitted
// sensor flanks[i]. cut is a bitset over the rows of between, all zero
// between calls; words lists each word of it that went from zero to
// non-zero, so a call reads back and clears only the words it touched.
type approxScratch struct {
	stamp       uint32
	in, flanked []uint32
	cut         []uint64
	words       []int32
	included    []int32
	sensors     []planar.NodeID
	gateways    []planar.NodeID
}

func newApproxScratch(clusters, flanks, rows int) *approxScratch {
	return &approxScratch{
		in: make([]uint32, clusters), flanked: make([]uint32, flanks), cut: make([]uint64, (rows+63)/64),
	}
}

// next draws a fresh stamp, zeroing the marks when the counter wraps.
func (s *approxScratch) next() uint32 {
	if s.stamp == math.MaxUint32 {
		clear(s.in)
		clear(s.flanked)
		s.stamp = 0
	}
	s.stamp++
	return s.stamp
}

// flip toggles a cluster's rows in word r.w of the cut bitset.
func (s *approxScratch) flip(r rowWord) {
	old := s.cut[r.w]
	s.cut[r.w] = old ^ r.bits
	if old == 0 {
		s.words = append(s.words, r.w)
	}
}

// Build constructs G̃ from the selected sensors.
func Build(w *roadnet.World, sensors []planar.NodeID, opt Options) (*Graph, error) {
	if len(sensors) == 0 {
		return nil, fmt.Errorf("sampled: no sensors selected")
	}
	for _, s := range sensors {
		if s == w.Dual.OuterNode {
			return nil, fmt.Errorf("sampled: outer dual node selected as sensor")
		}
		if s < 0 || int(s) >= w.Dual.G.NumNodes() {
			return nil, fmt.Errorf("sampled: sensor %d out of range", s)
		}
	}
	abstract, err := abstractEdges(w, sensors, opt)
	if err != nil {
		return nil, err
	}
	g := &Graph{
		W:         w,
		Sensors:   append([]planar.NodeID(nil), sensors...),
		DualEdges: make(map[planar.EdgeID]bool),
		DualNodes: make(map[planar.NodeID]bool),
	}
	for _, s := range sensors {
		g.DualNodes[s] = true
	}
	interior := newInteriorDual(w)
	for _, ab := range abstract {
		nodes, edges, ok := interior.path(ab[0], ab[1])
		if !ok {
			// Sensors separated by the outer face (should not happen in a
			// connected interior dual); skip the edge.
			continue
		}
		for _, n := range nodes {
			g.DualNodes[n] = true
		}
		for _, e := range edges {
			g.DualEdges[e] = true
		}
	}
	g.finish()
	return g, nil
}

// BuildFromDualEdges constructs G̃ directly from a set of sensing-graph
// edges — the query-adaptive path, where submodular maximization selects
// atom boundaries (§4.4).
func BuildFromDualEdges(w *roadnet.World, dualEdges []planar.EdgeID) (*Graph, error) {
	if len(dualEdges) == 0 {
		return nil, fmt.Errorf("sampled: no dual edges")
	}
	g := &Graph{
		W:         w,
		DualEdges: make(map[planar.EdgeID]bool),
		DualNodes: make(map[planar.NodeID]bool),
	}
	for _, de := range dualEdges {
		if de < 0 || int(de) >= w.Dual.G.NumEdges() {
			return nil, fmt.Errorf("sampled: dual edge %d out of range", de)
		}
		g.DualEdges[de] = true
		e := w.Dual.G.Edge(de)
		for _, n := range []planar.NodeID{e.U, e.V} {
			if n != w.Dual.OuterNode {
				g.DualNodes[n] = true
				g.Sensors = append(g.Sensors, n)
			}
		}
	}
	sort.Slice(g.Sensors, func(i, j int) bool { return g.Sensors[i] < g.Sensors[j] })
	g.Sensors = dedupNodes(g.Sensors)
	g.finish()
	return g, nil
}

func dedupNodes(ns []planar.NodeID) []planar.NodeID {
	out := ns[:0]
	for i, n := range ns {
		if i == 0 || n != ns[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// finish derives monitored roads, junction clusters and the face tables
// ApproximateRect compiles from.
func (g *Graph) finish() {
	w := g.W
	monitored := make([]bool, w.Star.NumEdges())
	for de := range g.DualEdges {
		pe := w.Dual.CrossedBy(de)
		monitored[pe] = true
		g.MonitoredRoads = append(g.MonitoredRoads, pe)
	}
	sort.Slice(g.MonitoredRoads, func(i, j int) bool { return g.MonitoredRoads[i] < g.MonitoredRoads[j] })
	// Clusters: union junctions across unmonitored roads.
	uf := newUnionFind(w.Star.NumNodes())
	for ei := 0; ei < w.Star.NumEdges(); ei++ {
		if monitored[ei] {
			continue
		}
		e := w.Star.Edge(planar.EdgeID(ei))
		uf.union(int(e.U), int(e.V))
	}
	var parts [][]planar.NodeID
	idOf := make(map[int]int)
	for j := 0; j < w.Star.NumNodes(); j++ {
		root := uf.find(j)
		id, ok := idOf[root]
		if !ok {
			id = len(parts)
			idOf[root] = id
			parts = append(parts, nil)
		}
		parts[id] = append(parts[id], planar.NodeID(j))
	}
	// Number the clusters in grid order: the wide ones, then cell by
	// cell, in order of their smallest junction within a cell.
	n := len(parts)
	g.grid = newFaceGrid(w.Bounds(), n)
	boxes := make([]geom.Rect, n)
	cell := make([]int, n)
	order := make([]int, n)
	for p, js := range parts {
		pts := make([]geom.Point, len(js))
		for i, j := range js {
			pts[i] = w.Star.Point(j)
		}
		boxes[p] = geom.BoundingRect(pts)
		cell[p] = g.grid.place(boxes[p])
		order[p] = p
	}
	sort.SliceStable(order, func(a, b int) bool { return cell[order[a]] < cell[order[b]] })
	cells := g.grid.nx * g.grid.ny
	g.grid.off = make([]int32, cells+1)
	g.grid.box = make([]geom.Rect, cells)
	for _, p := range order {
		if c := cell[p]; c >= 0 {
			if g.grid.off[c+1]++; g.grid.off[c+1] == 1 {
				g.grid.box[c] = boxes[p]
			}
			g.grid.box[c] = union(g.grid.box[c], boxes[p])
		} else {
			g.grid.off[0]++
		}
	}
	for c := 1; c <= cells; c++ {
		g.grid.off[c] += g.grid.off[c-1]
	}
	g.clusters = make([][]planar.NodeID, n)
	g.clusterOf = make([]int, w.Star.NumNodes())
	for id, p := range order {
		g.clusters[id] = parts[p]
		for _, j := range parts[p] {
			g.clusterOf[j] = id
		}
	}
	incident := make([][]int32, n)
	flankOf := make(map[planar.NodeID]int32)
	flank := func(s planar.NodeID) int32 {
		if s == w.Dual.OuterNode {
			return -1
		}
		i, ok := flankOf[s]
		if !ok {
			i = int32(len(g.flanks))
			flankOf[s] = i
			g.flanks = append(g.flanks, s)
		}
		return i
	}
	for _, road := range g.MonitoredRoads {
		e := w.Star.Edge(road)
		cu, cv := g.clusterOf[e.U], g.clusterOf[e.V]
		if cu == cv {
			continue
		}
		// A monitored road is crossed by a sensing edge, so it has one.
		d := w.Dual.G.Edge(w.Dual.EdgeOf[road])
		row := int32(len(g.between))
		g.between = append(g.between, betweenRoad{
			int32(road), int32(e.U), int32(e.V), int32(cu), flank(d.U), flank(d.V)})
		incident[cu] = append(incident[cu], row)
		incident[cv] = append(incident[cv], row)
	}
	g.faces = make([]face, n+1)
	g.junctions = make([]planar.NodeID, 0, w.Star.NumNodes())
	g.points = make([]geom.Point, 0, w.Star.NumNodes())
	for id, js := range g.clusters {
		at := len(g.junctions)
		g.faces[id] = face{box: boxes[order[id]], at: int32(at), row: int32(len(g.rows)), gw: int32(len(g.gateways))}
		g.junctions = append(g.junctions, js...)
		g.clusters[id] = g.junctions[at:len(g.junctions):len(g.junctions)]
		for _, j := range js {
			g.points = append(g.points, w.Star.Point(j))
			if w.IsGateway(j) {
				g.gateways = append(g.gateways, j)
			}
		}
		slices.SortFunc(g.points[at:], func(a, b geom.Point) int { return cmp.Compare(a.X, b.X) })
		for _, row := range incident[id] { // ascending, so a word's rows are adjacent
			if last := len(g.rows) - 1; last >= int(g.faces[id].row) && g.rows[last].w == row>>6 {
				g.rows[last].bits |= 1 << (row & 63)
			} else {
				g.rows = append(g.rows, rowWord{row >> 6, 1 << (row & 63)})
			}
		}
	}
	g.faces[n] = face{at: int32(len(g.junctions)), row: int32(len(g.rows)), gw: int32(len(g.gateways))}
	g.scratch.New = func() any { return newApproxScratch(n, len(g.flanks), len(g.between)) }
}

// union returns the smallest rect holding a and b.
func union(a, b geom.Rect) geom.Rect {
	return geom.Rect{
		Min: geom.Pt(math.Min(a.Min.X, b.Min.X), math.Min(a.Min.Y, b.Min.Y)),
		Max: geom.Pt(math.Max(a.Max.X, b.Max.X), math.Max(a.Max.Y, b.Max.Y)),
	}
}

// NumSensors returns the number of communication sensors: the selected
// nodes Ṽ (for the query-adaptive build, the atom-boundary sensors).
// Path-intermediate relay nodes are excluded — per §4.5 they are kept
// for the virtual representation and "do not have to be communication
// sensors".
func (g *Graph) NumSensors() int { return len(g.Sensors) }

// Bound selects the approximation direction of ApproximateRect.
type Bound int

// The two approximation directions of §4.6.
const (
	// Lower approximates Q_R by the maximal G̃ region enclosed by it.
	Lower Bound = iota
	// Upper approximates Q_R by the minimal G̃ region containing it.
	Upper
)

// String implements fmt.Stringer.
func (b Bound) String() string {
	switch b {
	case Lower:
		return "lower"
	case Upper:
		return "upper"
	}
	return fmt.Sprintf("Bound(%d)", int(b))
}

// ApproximateRect maps a query rect to the sampled graph: the union of
// the clusters (faces of G̃) whose junctions all lie in rect (Lower) or
// any of them does (Upper), junctions in ascending cluster id and cuts in
// MonitoredRoads order. exactSize is the number of junctions in rect, the
// size of the exact region Q_R. missed is true when the approximation is
// empty — for Lower, the paper's "query miss" (§5.5).
//
// A compile reads only the face tables the rect reaches. It visits the
// wide clusters and the grid cells within reach of the rect, in
// ascending cluster id. A cell whose box lies in rect is taken whole —
// every junction of its clusters is inside (Rect.Contains and
// ContainsRect are both closed); one whose box misses rect is skipped.
// In the others each cluster is decided by its own rect the same way,
// and only a cluster rect partly covers counts its junctions, in the X
// slab of its points sorted by X. Each included cluster flips its rows
// of the between table in a bitset: a row flipped twice has both ends
// inside, so the rows left set are the cuts, and one ascending pass over
// the words the compile touched emits them in MonitoredRoads order with
// their flanking sensors. The cost is the cells and clusters near the
// rect, the rows of the included clusters and the points counted — the
// rect, not the world.
func (g *Graph) ApproximateRect(rect geom.Rect, b Bound) (region *core.Region, exactSize int, missed bool, err error) {
	s := g.scratch.Get().(*approxScratch)
	stamp := s.next()
	f := &g.grid
	size, exactSize := g.decide(s, 0, f.off[0], rect, b, stamp)
	x0, x1, y0, y1 := f.span(rect)
	x0, x1 = max(x0-f.reachX, 0), min(x1+f.reachX, f.nx-1)
	y0, y1 = max(y0-f.reachY, 0), min(y1+f.reachY, f.ny-1)
	for y := y0; y <= y1; y++ {
		for c := y*f.nx + x0; c <= y*f.nx+x1; c++ {
			lo, hi := f.off[c], f.off[c+1]
			switch box := f.box[c]; {
			case lo == hi || !rect.Intersects(box):
			case rect.ContainsRect(box):
				n := g.take(s, lo, hi, stamp)
				size += n
				exactSize += n
			default:
				n, in := g.decide(s, lo, hi, rect, b, stamp)
				size += n
				exactSize += in
			}
		}
	}
	// A word listed twice went back to zero in between.
	slices.Sort(s.words)
	s.words = slices.Compact(s.words)
	cuts := 0
	for _, w := range s.words {
		cuts += bits.OnesCount64(s.cut[w])
	}
	perimeter := make([]core.CutRoad, cuts, cuts+len(s.gateways))
	cuts = 0
	for _, w := range s.words {
		word := s.cut[w]
		s.cut[w] = 0
		for ; word != 0; word &= word - 1 {
			c := &g.between[int(w)<<6|bits.TrailingZeros64(word)]
			inside := c.v
			if s.in[c.cu] == stamp {
				inside = c.u
			}
			perimeter[cuts] = core.CutRoad{Road: planar.EdgeID(c.road), Inside: planar.NodeID(inside)}
			cuts++
			for _, fl := range [2]int32{c.fu, c.fv} {
				if fl >= 0 && s.flanked[fl] != stamp {
					s.flanked[fl] = stamp
					s.sensors = append(s.sensors, g.flanks[fl])
				}
			}
		}
	}
	slices.Sort(s.gateways)
	for _, gw := range s.gateways {
		perimeter = append(perimeter, core.CutRoad{Road: g.W.WorldEdge(gw), Inside: gw})
	}
	// One array holds the junctions and then the sensors. Included
	// clusters come in runs of ids, and a run's junctions are one window
	// of the flat table.
	nodes := make([]planar.NodeID, size+len(s.sensors))
	at := 0
	for i := 0; i < len(s.included); {
		lo := s.included[i]
		for i++; i < len(s.included) && s.included[i] == s.included[i-1]+1; i++ {
		}
		at += copy(nodes[at:], g.junctions[g.faces[lo].at:g.faces[s.included[i-1]+1].at])
	}
	copy(nodes[at:], s.sensors)
	var junctions, sensors []planar.NodeID
	if size > 0 {
		junctions, sensors = nodes[:size:size], nodes[size:]
	}
	region = core.NewCompiledRegion(g.W, junctions, perimeter, cuts, sensors)
	s.words, s.included, s.sensors, s.gateways = s.words[:0], s.included[:0], s.sensors[:0], s.gateways[:0]
	g.scratch.Put(s)
	return region, exactSize, size == 0, nil
}

// decide decides clusters lo to hi-1 one by one, takes the ones the
// bound includes, and returns the junctions taken and those in rect.
func (g *Graph) decide(s *approxScratch, lo, hi int32, rect geom.Rect, b Bound, stamp uint32) (size, exactSize int) {
	for id := lo; id < hi; id++ {
		fc, next := &g.faces[id], &g.faces[id+1]
		if !rect.Intersects(fc.box) {
			continue
		}
		n := int(next.at - fc.at)
		in := n
		if !rect.ContainsRect(fc.box) {
			in = countIn(g.points[fc.at:next.at], rect)
		}
		exactSize += in
		if in > 0 && (b == Upper || in == n) {
			size += g.take(s, id, id+1, stamp)
		}
	}
	return size, exactSize
}

// take includes clusters lo to hi-1 — marks them, flips their rows of
// between and gathers their gateways — and returns their junction count.
func (g *Graph) take(s *approxScratch, lo, hi int32, stamp uint32) int {
	for id := lo; id < hi; id++ {
		s.in[id] = stamp
		s.included = append(s.included, id)
		fc, next := &g.faces[id], &g.faces[id+1]
		for _, r := range g.rows[fc.row:next.row] {
			s.flip(r)
		}
		if fc.gw != next.gw {
			s.gateways = append(s.gateways, g.gateways[fc.gw:next.gw]...)
		}
	}
	return int(g.faces[hi].at - g.faces[lo].at)
}

// countIn counts the points of pts, sorted by X, inside r: those of the
// X slab [r.Min.X, r.Max.X], found by binary search in a large cluster.
func countIn(pts []geom.Point, r geom.Rect) int {
	i := 0
	if len(pts) > 16 {
		for hi := len(pts); i < hi; {
			if m := int(uint(i+hi) >> 1); pts[m].X < r.Min.X {
				i = m + 1
			} else {
				hi = m
			}
		}
	}
	n := 0
	for ; i < len(pts) && pts[i].X <= r.Max.X; i++ {
		if r.Contains(pts[i]) {
			n++
		}
	}
	return n
}

// Monitors reports whether the sampled system stores the tracking form of
// the given road.
func (g *Graph) Monitors(road planar.EdgeID) bool {
	de := g.W.Dual.EdgeOf[road]
	return de != planar.NoEdge && g.DualEdges[de]
}

// abstractEdges generates the sensor-to-sensor edges before path
// materialization.
func abstractEdges(w *roadnet.World, sensors []planar.NodeID, opt Options) ([][2]planar.NodeID, error) {
	switch opt.Connect {
	case Triangulation:
		if len(sensors) < 3 {
			return pairAll(sensors), nil
		}
		pts := make([]geom.Point, len(sensors))
		for i, s := range sensors {
			pts[i] = w.Dual.G.Point(s)
		}
		tris, err := delaunay.Triangulate(pts)
		if err != nil {
			return nil, fmt.Errorf("sampled: triangulating sensors: %w", err)
		}
		var out [][2]planar.NodeID
		for _, e := range delaunay.Edges(tris) {
			out = append(out, [2]planar.NodeID{sensors[e.U], sensors[e.V]})
		}
		return out, nil
	case KNN:
		k := opt.K
		if k <= 0 {
			k = 3
		}
		items := make([]index.Item, len(sensors))
		for i, s := range sensors {
			items[i] = index.Item{ID: int(s), P: w.Dual.G.Point(s)}
		}
		kt := index.BuildKDTree(items)
		seen := make(map[[2]planar.NodeID]bool)
		var out [][2]planar.NodeID
		for _, s := range sensors {
			nn := kt.KNearest(w.Dual.G.Point(s), k+1) // includes s itself
			for _, it := range nn {
				o := planar.NodeID(it.ID)
				if o == s {
					continue
				}
				key := [2]planar.NodeID{s, o}
				if o < s {
					key = [2]planar.NodeID{o, s}
				}
				if !seen[key] {
					seen[key] = true
					out = append(out, key)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i][0] != out[j][0] {
				return out[i][0] < out[j][0]
			}
			return out[i][1] < out[j][1]
		})
		return out, nil
	}
	return nil, fmt.Errorf("sampled: unknown connectivity %d", opt.Connect)
}

func pairAll(sensors []planar.NodeID) [][2]planar.NodeID {
	var out [][2]planar.NodeID
	for i := 0; i < len(sensors); i++ {
		for j := i + 1; j < len(sensors); j++ {
			out = append(out, [2]planar.NodeID{sensors[i], sensors[j]})
		}
	}
	return out
}

// interiorDual is the sensing graph without its outer-face node, used for
// shortest-path materialization (paths must stay among real sensors).
type interiorDual struct {
	g *planar.Graph
	// toDualNode maps interior node → original dual node, and back.
	toDual   []planar.NodeID
	fromDual []planar.NodeID
	// toDualEdge maps interior edge → original dual edge.
	toDualEdge []planar.EdgeID
}

func newInteriorDual(w *roadnet.World) *interiorDual {
	d := w.Dual
	id := &interiorDual{
		g:        planar.NewGraph(d.G.NumNodes()-1, d.G.NumEdges()),
		fromDual: make([]planar.NodeID, d.G.NumNodes()),
	}
	for n := 0; n < d.G.NumNodes(); n++ {
		if planar.NodeID(n) == d.OuterNode {
			id.fromDual[n] = planar.NoNode
			continue
		}
		nn := id.g.AddNode(d.G.Point(planar.NodeID(n)))
		id.fromDual[n] = nn
		id.toDual = append(id.toDual, planar.NodeID(n))
	}
	for e := 0; e < d.G.NumEdges(); e++ {
		ed := d.G.Edge(planar.EdgeID(e))
		u, v := id.fromDual[ed.U], id.fromDual[ed.V]
		if u == planar.NoNode || v == planar.NoNode {
			continue
		}
		if _, err := id.g.AddWeightedEdge(u, v, ed.Weight); err == nil {
			id.toDualEdge = append(id.toDualEdge, planar.EdgeID(e))
		}
	}
	return id
}

// path returns the shortest interior path between two dual nodes in the
// original dual graph's ID space.
func (id *interiorDual) path(a, b planar.NodeID) (nodes []planar.NodeID, edges []planar.EdgeID, ok bool) {
	ia, ib := id.fromDual[a], id.fromDual[b]
	if ia == planar.NoNode || ib == planar.NoNode {
		return nil, nil, false
	}
	ns, es, ok := planar.DijkstraTo(id.g, ia, ib)
	if !ok {
		return nil, nil, false
	}
	nodes = make([]planar.NodeID, len(ns))
	for i, n := range ns {
		nodes[i] = id.toDual[n]
	}
	edges = make([]planar.EdgeID, len(es))
	for i, e := range es {
		edges[i] = id.toDualEdge[e]
	}
	return nodes, edges, true
}

// unionFind is a disjoint-set forest with path halving (duplicated from
// roadnet to keep the packages independent).
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

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
