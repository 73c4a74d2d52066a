// Package planar implements embedded planar graphs and the operations the
// framework needs from them: face extraction via the rotation system
// (half-edge walking), dual-graph construction and shortest paths.
//
// Graphs are node/edge indexed by dense integer IDs so that downstream
// packages can use slices rather than maps in hot paths.
package planar

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// NodeID identifies a node within a Graph.
type NodeID int

// EdgeID identifies an undirected edge within a Graph.
type EdgeID int

// FaceID identifies a face produced by Graph.Faces.
type FaceID int

// Invalid sentinel IDs.
const (
	NoNode NodeID = -1
	NoEdge EdgeID = -1
	NoFace FaceID = -1
)

// Edge is an undirected edge between two nodes. U < V is not required;
// the pair is stored as given at AddEdge time.
type Edge struct {
	U, V NodeID
	// Weight is the traversal cost of the edge. NewGraph-created edges
	// default to the Euclidean distance between the endpoints.
	Weight float64
}

// Other returns the endpoint of e that is not n. It panics if n is not an
// endpoint, which always indicates a programming error in the caller.
func (e Edge) Other(n NodeID) NodeID {
	switch n {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("planar: node %d is not an endpoint of edge %v", n, e))
}

// Graph is an embedded undirected planar graph. The embedding is given by
// node coordinates; edges are assumed to be straight segments that only
// intersect at shared endpoints (the roadnet generators build them so).
type Graph struct {
	pts   []geom.Point
	edges []Edge
	// adj[n] lists the edges incident to node n.
	adj [][]EdgeID
	// rot[n] lists incident edges sorted counter-clockwise by angle;
	// built lazily by ensureRotation.
	rot    [][]EdgeID
	rotMap []map[EdgeID]int // position of each edge within rot[n]
}

// NewGraph returns an empty graph with capacity hints for n nodes and m
// edges.
func NewGraph(n, m int) *Graph {
	return &Graph{
		pts:   make([]geom.Point, 0, n),
		edges: make([]Edge, 0, m),
		adj:   make([][]EdgeID, 0, n),
	}
}

// AddNode appends a node at p and returns its ID.
func (g *Graph) AddNode(p geom.Point) NodeID {
	g.pts = append(g.pts, p)
	g.adj = append(g.adj, nil)
	g.invalidate()
	return NodeID(len(g.pts) - 1)
}

// AddEdge appends an undirected edge between u and v weighted by their
// Euclidean distance, and returns its ID. Self loops are rejected with an
// error because face extraction does not support them.
func (g *Graph) AddEdge(u, v NodeID) (EdgeID, error) {
	if u < 0 || v < 0 || int(u) >= len(g.pts) || int(v) >= len(g.pts) {
		return NoEdge, fmt.Errorf("planar: edge (%d,%d) references missing node", u, v)
	}
	return g.AddWeightedEdge(u, v, g.pts[u].Dist(g.pts[v]))
}

// AddWeightedEdge is AddEdge with an explicit traversal cost.
func (g *Graph) AddWeightedEdge(u, v NodeID, w float64) (EdgeID, error) {
	if u == v {
		return NoEdge, fmt.Errorf("planar: self loop on node %d", u)
	}
	if int(u) >= len(g.pts) || int(v) >= len(g.pts) || u < 0 || v < 0 {
		return NoEdge, fmt.Errorf("planar: edge (%d,%d) references missing node", u, v)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{U: u, V: v, Weight: w})
	g.adj[u] = append(g.adj[u], id)
	g.adj[v] = append(g.adj[v], id)
	g.invalidate()
	return id, nil
}

func (g *Graph) invalidate() {
	g.rot = nil
	g.rotMap = nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.pts) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Point returns the embedding location of node n.
func (g *Graph) Point(n NodeID) geom.Point { return g.pts[n] }

// Edge returns the endpoints and weight of edge e.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// Edges returns the edge slice. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Incident returns the edges incident to n. The caller must not modify
// the returned slice.
func (g *Graph) Incident(n NodeID) []EdgeID { return g.adj[n] }

// Degree returns the number of edges incident to n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// Bounds returns the bounding rectangle of the embedding.
func (g *Graph) Bounds() geom.Rect { return geom.BoundingRect(g.pts) }

// ensureRotation builds, for every node, its incident edges sorted CCW by
// the angle of the outgoing direction. This is the rotation system used by
// face extraction.
func (g *Graph) ensureRotation() {
	if g.rot != nil {
		return
	}
	g.rot = make([][]EdgeID, len(g.pts))
	g.rotMap = make([]map[EdgeID]int, len(g.pts))
	for n := range g.pts {
		in := g.adj[n]
		r := make([]EdgeID, len(in))
		copy(r, in)
		p := g.pts[n]
		sort.Slice(r, func(i, j int) bool {
			a := p.Angle(g.pts[g.edges[r[i]].Other(NodeID(n))])
			b := p.Angle(g.pts[g.edges[r[j]].Other(NodeID(n))])
			return a < b
		})
		g.rot[n] = r
		m := make(map[EdgeID]int, len(r))
		for i, e := range r {
			m[e] = i
		}
		g.rotMap[n] = m
	}
}

// Half identifies a directed half-edge: edge E traversed from node From.
type Half struct {
	E    EdgeID
	From NodeID
}

// To returns the head of the half-edge in g.
func (h Half) To(g *Graph) NodeID { return g.edges[h.E].Other(h.From) }

// nextAroundFace returns the half-edge that follows h on the boundary of
// the face to the LEFT of h, under the convention that faces are traced
// counter-clockwise (interior faces) by always taking the next edge
// clockwise from the reversed edge in the rotation at the head node.
func (g *Graph) nextAroundFace(h Half) Half {
	v := h.To(g)
	rot := g.rot[v]
	i := g.rotMap[v][h.E]
	// Clockwise next = previous in CCW order.
	j := i - 1
	if j < 0 {
		j = len(rot) - 1
	}
	return Half{E: rot[j], From: v}
}

// Face is a facial walk of the embedding: the sequence of half-edges
// bounding one face. Interior faces come out counter-clockwise (positive
// signed area); the single outer face is clockwise.
type Face struct {
	ID    FaceID
	Halfs []Half
	// Outer marks the unbounded face.
	Outer bool
}

// Nodes returns the node cycle of the face (tail of each half-edge).
func (f *Face) Nodes(g *Graph) []NodeID {
	out := make([]NodeID, len(f.Halfs))
	for i, h := range f.Halfs {
		out[i] = h.From
	}
	return out
}

// Polygon returns the face boundary as a polygon in walk order. Faces of a
// non-2-connected graph may repeat vertices (bridges are traversed twice);
// such polygons still yield a correct signed area.
func (f *Face) Polygon(g *Graph) geom.Polygon {
	pg := make(geom.Polygon, len(f.Halfs))
	for i, h := range f.Halfs {
		pg[i] = g.pts[h.From]
	}
	return pg
}

// FaceSet is the result of face extraction: all faces plus a lookup from
// directed half-edges to the face on their left.
type FaceSet struct {
	Faces []Face
	// left[e][0] is the face left of edge e directed U→V, left[e][1] is
	// the face left of V→U.
	left  [][2]FaceID
	outer FaceID
}

// Outer returns the ID of the unbounded face.
func (fs *FaceSet) Outer() FaceID { return fs.outer }

// SidesOf returns the two faces flanking undirected edge e: the face to
// the left of U→V and the face to the left of V→U.
func (fs *FaceSet) SidesOf(e EdgeID) (uv, vu FaceID) {
	return fs.left[e][0], fs.left[e][1]
}

// Faces extracts all faces of the embedding by walking the rotation
// system. The graph must be connected and have at least one edge; every
// half-edge belongs to exactly one face. The outer face is identified as
// the facial walk with the most negative signed area.
func (g *Graph) Faces() (*FaceSet, error) {
	if len(g.edges) == 0 {
		return nil, fmt.Errorf("planar: face extraction on empty graph")
	}
	g.ensureRotation()
	fs := &FaceSet{left: make([][2]FaceID, len(g.edges)), outer: NoFace}
	for i := range fs.left {
		fs.left[i] = [2]FaceID{NoFace, NoFace}
	}
	seen := func(h Half) bool {
		if g.edges[h.E].U == h.From {
			return fs.left[h.E][0] != NoFace
		}
		return fs.left[h.E][1] != NoFace
	}
	mark := func(h Half, f FaceID) {
		if g.edges[h.E].U == h.From {
			fs.left[h.E][0] = f
		} else {
			fs.left[h.E][1] = f
		}
	}
	minArea := math.Inf(1)
	for ei := range g.edges {
		for _, start := range []Half{{E: EdgeID(ei), From: g.edges[ei].U}, {E: EdgeID(ei), From: g.edges[ei].V}} {
			if seen(start) {
				continue
			}
			id := FaceID(len(fs.Faces))
			var walk []Half
			h := start
			for steps := 0; ; steps++ {
				if steps > 4*len(g.edges)+4 {
					return nil, fmt.Errorf("planar: face walk did not close (non-planar embedding?)")
				}
				walk = append(walk, h)
				mark(h, id)
				h = g.nextAroundFace(h)
				if h == start {
					break
				}
			}
			f := Face{ID: id, Halfs: walk}
			a := f.Polygon(g).SignedArea()
			if a < minArea {
				minArea = a
				fs.outer = id
			}
			fs.Faces = append(fs.Faces, f)
		}
	}
	if fs.outer != NoFace {
		fs.Faces[fs.outer].Outer = true
	}
	return fs, nil
}

// CheckEuler verifies Euler's formula V − E + F = 2 for a connected planar
// embedding, returning an error describing the mismatch otherwise. It is
// used by tests and the generators' self-checks.
func (g *Graph) CheckEuler(fs *FaceSet) error {
	v, e, f := g.NumNodes(), g.NumEdges(), len(fs.Faces)
	if v-e+f != 2 {
		return fmt.Errorf("planar: Euler check failed: V=%d E=%d F=%d, V-E+F=%d (want 2)",
			v, e, f, v-e+f)
	}
	return nil
}

// Connected reports whether the graph is connected (ignoring isolated
// graphs of zero nodes, which count as connected).
func (g *Graph) Connected() bool {
	if len(g.pts) == 0 {
		return true
	}
	seen := make([]bool, len(g.pts))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[n] {
			o := g.edges[e].Other(n)
			if !seen[o] {
				seen[o] = true
				count++
				stack = append(stack, o)
			}
		}
	}
	return count == len(g.pts)
}
