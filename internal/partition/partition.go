// Package partition implements the spatially partitioned multi-store
// (DESIGN.md §14): the sensing graph is split into spatial cells along
// junction-cluster boundaries, each cell owns its roads' tracking forms
// in its own core.Store, ingestion is routed by edge to the owning
// partition, and rect queries are answered by scatter-gather whose
// merged result is bit-identical to a single store.
//
// The decomposition works because perimeter integration is a sum over
// cut edges (roads and world edges): every term of the boundary integral is
// owned by exactly one partition, integer partial sums in float64 are
// exact and order-insensitive, and event enumeration dispatches per
// road in the same order a single store would visit — so the merged
// answer of every query kind equals the single-store answer bit for
// bit.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Layout is a deterministic assignment of the world's junctions and
// roads to spatial cells. It is immutable after Build.
type Layout struct {
	// Cells is the number of partitions.
	Cells int
	// CellOfJunction[j] is the owning cell of junction j.
	CellOfJunction []int
	// CellOfRoad[e] is the owning cell of road e: the cell of its U
	// endpoint, so ownership is a pure function of the road ID and every
	// tracking form lives in exactly one store.
	CellOfRoad []int
	// BoundaryRoads lists the roads whose endpoints live in different
	// cells — the inter-partition boundary. Their forms are still owned
	// by exactly one cell (the U endpoint's); the list exists for
	// observability and layout-quality accounting.
	BoundaryRoads []planar.EdgeID
	// CellJunctions[c] is the number of junctions assigned to cell c.
	CellJunctions []int
	// cellOfEdge[e] is the owning cell of tracked edge e of the closed
	// graph: CellOfRoad, then every junction's world edge with its
	// junction (roadnet.World.WorldEdge).
	cellOfEdge []int
}

// Build computes a deterministic spatial layout of w into `cells`
// partitions by recursive median splits: the junction set is split
// along the wider axis of its bounding box at the size-proportional
// median (ties broken by junction ID), recursively, until `cells`
// contiguous cells remain. Identical inputs always produce identical
// layouts — partition routing must be a pure function of the world, or
// a cluster's router and cells, each building the layout in its own
// process, would disagree on who owns an edge.
func Build(w *roadnet.World, cells int) (*Layout, error) {
	n := w.Star.NumNodes()
	if cells < 1 {
		return nil, fmt.Errorf("partition: cell count %d < 1", cells)
	}
	if cells > n {
		return nil, fmt.Errorf("partition: %d cells over %d junctions", cells, n)
	}
	lay := &Layout{
		Cells:          cells,
		CellOfJunction: make([]int, n),
		CellJunctions:  make([]int, cells),
		cellOfEdge:     make([]int, w.NumTrackedEdges()),
	}
	lay.CellOfRoad = lay.cellOfEdge[:w.NumRoads():w.NumRoads()]
	js := make([]planar.NodeID, n)
	for i := range js {
		js[i] = planar.NodeID(i)
	}
	next := 0
	var split func(js []planar.NodeID, k int)
	split = func(js []planar.NodeID, k int) {
		if k == 1 {
			for _, j := range js {
				lay.CellOfJunction[j] = next
			}
			lay.CellJunctions[next] = len(js)
			next++
			return
		}
		// Wider-axis median split, size-proportional so every leaf ends
		// up with ⌈n/cells⌉ ± 1 junctions.
		minP := w.Star.Point(js[0])
		maxP := minP
		for _, j := range js[1:] {
			p := w.Star.Point(j)
			if p.X < minP.X {
				minP.X = p.X
			}
			if p.Y < minP.Y {
				minP.Y = p.Y
			}
			if p.X > maxP.X {
				maxP.X = p.X
			}
			if p.Y > maxP.Y {
				maxP.Y = p.Y
			}
		}
		byX := maxP.X-minP.X >= maxP.Y-minP.Y
		sort.Slice(js, func(a, b int) bool {
			pa, pb := w.Star.Point(js[a]), w.Star.Point(js[b])
			ca, cb := pa.Y, pb.Y
			if byX {
				ca, cb = pa.X, pb.X
			}
			if ca != cb {
				return ca < cb
			}
			return js[a] < js[b]
		})
		kl := (k + 1) / 2
		cut := len(js) * kl / k
		split(js[:cut], kl)
		split(js[cut:], k-kl)
	}
	split(js, cells)
	for e := 0; e < w.Star.NumEdges(); e++ {
		ed := w.Star.Edge(planar.EdgeID(e))
		cu, cv := lay.CellOfJunction[ed.U], lay.CellOfJunction[ed.V]
		lay.CellOfRoad[e] = cu
		if cu != cv {
			lay.BoundaryRoads = append(lay.BoundaryRoads, planar.EdgeID(e))
		}
	}
	copy(lay.cellOfEdge[w.NumRoads():], lay.CellOfJunction)
	return lay, nil
}

// OwnerOfRoad returns the owning cell of road e.
func (l *Layout) OwnerOfRoad(e planar.EdgeID) int { return l.CellOfRoad[e] }

// OwnerOfEdge returns the owning cell of tracked edge e of the closed
// graph: a road's owner, or the owner of a world edge's junction.
func (l *Layout) OwnerOfEdge(e planar.EdgeID) int { return l.cellOfEdge[e] }

// OwnerOfJunction returns the owning cell of junction j (which also
// owns j's world edges).
func (l *Layout) OwnerOfJunction(j planar.NodeID) int { return l.CellOfJunction[j] }
