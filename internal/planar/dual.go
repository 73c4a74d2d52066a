package planar

import (
	"fmt"

	"repro/internal/geom"
)

// Dual is the dual graph of an embedded planar graph: one node per face of
// the primal (including the outer face) and one edge per primal edge,
// connecting the two faces it separates. It is the paper's sensing graph
// G when the primal is the mobility graph ★G.
type Dual struct {
	// G is the dual graph itself. Node i of G corresponds to primal face
	// FaceID(i); dual node positions are face centroids (outer face: a
	// point outside the primal bounding box).
	G *Graph
	// Primal is the graph the dual was built from.
	Primal *Graph
	// FS is the primal face set.
	FS *FaceSet
	// EdgeOf[pe] is the dual edge crossing primal edge pe, or NoEdge for
	// primal bridges (both sides the same face).
	EdgeOf []EdgeID
	// PrimalEdge[de] is the primal edge crossed by dual edge de.
	PrimalEdge []EdgeID
	// OuterNode is the dual node of the primal outer face.
	OuterNode NodeID
}

// BuildDual constructs the dual of g. The graph must be connected with at
// least one face. Bridges in the primal produce no dual edge (the face is
// the same on both sides); the generators guarantee 2-edge-connectivity,
// but the construction tolerates bridges for robustness.
func BuildDual(g *Graph) (*Dual, error) {
	fs, err := g.Faces()
	if err != nil {
		return nil, err
	}
	d := &Dual{
		G:      NewGraph(len(fs.Faces), g.NumEdges()),
		Primal: g,
		FS:     fs,
		EdgeOf: make([]EdgeID, g.NumEdges()),
	}
	bounds := g.Bounds()
	for i := range fs.Faces {
		f := &fs.Faces[i]
		var p geom.Point
		if f.Outer {
			// Place the outer-face node outside the domain so plots and
			// nearest-node lookups never confuse it with a real sensor.
			p = geom.Pt(bounds.Min.X-bounds.Width()*0.25, bounds.Min.Y-bounds.Height()*0.25)
			d.OuterNode = NodeID(i)
		} else {
			p = f.Polygon(g).Centroid()
		}
		d.G.AddNode(p)
	}
	for ei := 0; ei < g.NumEdges(); ei++ {
		fu, fv := fs.SidesOf(EdgeID(ei))
		if fu == fv {
			d.EdgeOf[ei] = NoEdge // bridge
			continue
		}
		de, err := d.G.AddEdge(NodeID(fu), NodeID(fv))
		if err != nil {
			return nil, fmt.Errorf("planar: dual edge for primal edge %d: %w", ei, err)
		}
		d.EdgeOf[ei] = de
		d.PrimalEdge = append(d.PrimalEdge, EdgeID(ei))
	}
	return d, nil
}

// CrossedBy returns the primal edge crossed by dual edge de.
func (d *Dual) CrossedBy(de EdgeID) EdgeID { return d.PrimalEdge[de] }

// InteriorNodes returns the dual nodes excluding the outer-face node, i.e.
// the candidate sensor locations of the paper.
func (d *Dual) InteriorNodes() []NodeID {
	out := make([]NodeID, 0, d.G.NumNodes()-1)
	for n := 0; n < d.G.NumNodes(); n++ {
		if NodeID(n) != d.OuterNode {
			out = append(out, NodeID(n))
		}
	}
	return out
}
