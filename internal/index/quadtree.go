package index

import (
	"repro/internal/geom"
)

// QuadTree is a point-region quadtree: space is recursively split into
// four equal quadrants until each leaf holds at most MaxLeaf items.
type QuadTree struct {
	// MaxLeaf is the leaf capacity used at Build time.
	MaxLeaf int
	root    *quadNode
}

type quadNode struct {
	bounds   geom.Rect
	items    []Item       // leaf payload (nil for internal nodes)
	children [4]*quadNode // nil for leaves
}

// BuildQuadTree constructs a quadtree over items with leaf capacity
// maxLeaf (minimum 1). Duplicate points beyond maxLeaf terminate
// splitting once quadrants reach degenerate size, keeping the tree finite.
func BuildQuadTree(items []Item, maxLeaf int) *QuadTree {
	if maxLeaf < 1 {
		maxLeaf = 1
	}
	t := &QuadTree{MaxLeaf: maxLeaf}
	if len(items) == 0 {
		return t
	}
	pts := make([]geom.Point, len(items))
	for i, it := range items {
		pts[i] = it.P
	}
	bounds := geom.BoundingRect(pts).Expand(geom.Eps)
	all := make([]Item, len(items))
	copy(all, items)
	t.root = buildQuad(bounds, all, maxLeaf)
	return t
}

func buildQuad(bounds geom.Rect, items []Item, maxLeaf int) *quadNode {
	n := &quadNode{bounds: bounds}
	if len(items) <= maxLeaf || bounds.Width() <= 4*geom.Eps || bounds.Height() <= 4*geom.Eps {
		n.items = items
		return n
	}
	c := bounds.Center()
	quadrants := [4]geom.Rect{
		{Min: bounds.Min, Max: c}, // SW
		{Min: geom.Pt(c.X, bounds.Min.Y), Max: geom.Pt(bounds.Max.X, c.Y)}, // SE
		{Min: geom.Pt(bounds.Min.X, c.Y), Max: geom.Pt(c.X, bounds.Max.Y)}, // NW
		{Min: c, Max: bounds.Max}, // NE
	}
	var parts [4][]Item
	for _, it := range items {
		q := 0
		if it.P.X >= c.X {
			q |= 1
		}
		if it.P.Y >= c.Y {
			q |= 2
		}
		parts[q] = append(parts[q], it)
	}
	for q := range quadrants {
		if len(parts[q]) > 0 {
			n.children[q] = buildQuad(quadrants[q], parts[q], maxLeaf)
		}
	}
	return n
}

func isQuadLeaf(n *quadNode) bool {
	return n.children[0] == nil && n.children[1] == nil &&
		n.children[2] == nil && n.children[3] == nil
}

// Leaves returns the leaf-level partition of the indexed items — the
// partition used by QuadTree sampling (§4.3).
func (t *QuadTree) Leaves() [][]Item {
	var out [][]Item
	var walk func(n *quadNode)
	walk = func(n *quadNode) {
		if n == nil {
			return
		}
		if n.items != nil || isQuadLeaf(n) {
			if len(n.items) > 0 {
				leaf := make([]Item, len(n.items))
				copy(leaf, n.items)
				out = append(out, leaf)
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}
