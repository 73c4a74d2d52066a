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
// A query is answered at face granularity. Build precomputes each
// cluster's bounding rect and the table of monitored roads between two
// clusters, so ApproximateRect decides a cluster from its rect (testing
// points only where the query rect's edge crosses it) and reads the cuts
// off the table: O(C + |E(G̃)|) for C clusters, without listing the
// junctions inside the query rect.
package sampled

import (
	"fmt"
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
	// clusters lists the junctions of each cluster, points their
	// locations in the same order, and bounds their bounding rect.
	clusters [][]planar.NodeID
	points   [][]geom.Point
	bounds   []geom.Rect
	// between lists the monitored roads whose ends lie in two clusters,
	// in MonitoredRoads order: the only roads that can cut a union of
	// clusters.
	between []betweenRoad
	// scratch pools *approxScratch sized to clusters, so concurrent
	// ApproximateRect calls build no per-query containers.
	scratch sync.Pool
}

// betweenRoad is a monitored road with its ends and their clusters.
type betweenRoad struct {
	road   planar.EdgeID
	u, v   planar.NodeID
	cu, cv int32
}

// approxScratch is ApproximateRect's working set. included is indexed by
// cluster id and all-false between calls: touched lists the clusters a
// call set, and the call clears exactly those.
type approxScratch struct {
	included []bool
	touched  []int
	cuts     []core.CutRoad // gathered here, copied out at their final size
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

// finish derives monitored roads and junction clusters.
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
	g.clusterOf = make([]int, w.Star.NumNodes())
	idOf := make(map[int]int)
	for j := 0; j < w.Star.NumNodes(); j++ {
		root := uf.find(j)
		id, ok := idOf[root]
		if !ok {
			id = len(g.clusters)
			idOf[root] = id
			g.clusters = append(g.clusters, nil)
		}
		g.clusterOf[j] = id
		g.clusters[id] = append(g.clusters[id], planar.NodeID(j))
	}
	n := len(g.clusters)
	g.points = make([][]geom.Point, n)
	g.bounds = make([]geom.Rect, n)
	for id, js := range g.clusters {
		g.points[id] = make([]geom.Point, len(js))
		for i, j := range js {
			g.points[id][i] = w.Star.Point(j)
		}
		g.bounds[id] = geom.BoundingRect(g.points[id])
	}
	for _, road := range g.MonitoredRoads {
		e := w.Star.Edge(road)
		if cu, cv := g.clusterOf[e.U], g.clusterOf[e.V]; cu != cv {
			g.between = append(g.between, betweenRoad{road, e.U, e.V, int32(cu), int32(cv)})
		}
	}
	g.scratch.New = func() any { return &approxScratch{included: make([]bool, n)} }
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
// A cluster is decided by its bounding rect: inside rect, all of its
// junctions are (Rect.Contains and ContainsRect are both closed);
// disjoint, none is. Only a cluster rect partly covers has its junctions
// tested one by one, so a compile costs O(C + |E(G̃)|) for C clusters
// plus the points of the clusters the rect's edges cross.
func (g *Graph) ApproximateRect(rect geom.Rect, b Bound) (region *core.Region, exactSize int, missed bool, err error) {
	s := g.scratch.Get().(*approxScratch)
	size := 0
	for id, box := range g.bounds {
		if !rect.Intersects(box) {
			continue
		}
		in := len(g.points[id])
		if !rect.ContainsRect(box) {
			in = 0
			for _, p := range g.points[id] {
				if rect.Contains(p) {
					in++
				}
			}
		}
		exactSize += in
		if in > 0 && (b == Upper || in == len(g.points[id])) {
			s.included[id] = true
			s.touched = append(s.touched, id)
			size += len(g.points[id])
		}
	}
	junctions := make([]planar.NodeID, 0, size)
	for _, id := range s.touched {
		junctions = append(junctions, g.clusters[id]...)
	}
	// Derive the perimeter from the monitored edges alone: a cluster-
	// union region is only ever cut by a road between two clusters, so
	// this touches O(|E(G̃)|) sensing edges — the in-network cost
	// structure.
	if size > 0 {
		for _, c := range g.between {
			inU, inV := s.included[c.cu], s.included[c.cv]
			if inU == inV {
				continue
			}
			inside := c.u
			if inV {
				inside = c.v
			}
			s.cuts = append(s.cuts, core.CutRoad{Road: c.road, Inside: inside})
		}
	}
	// Non-nil even when nothing cuts the union (a rect that takes every
	// cluster): a nil list would read as no perimeter installed, and the
	// region would scan its junctions for one.
	cuts := append([]core.CutRoad{}, s.cuts...)
	for _, id := range s.touched {
		s.included[id] = false
	}
	s.touched, s.cuts = s.touched[:0], s.cuts[:0]
	g.scratch.Put(s)
	if region, err = core.NewRegion(g.W, junctions); err != nil {
		return nil, 0, false, err
	}
	if !region.Empty() {
		region.SetCutRoads(cuts)
	}
	return region, exactSize, region.Empty(), nil
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
