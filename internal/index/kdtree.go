// Package index provides the hierarchical spatial indexes the framework
// uses as substrates: a 2-d kd-tree and a point-region QuadTree. The
// kd-tree answers the range and k-nearest queries of the world and the
// sampled graph; both give the leaf-level partitioning that drives the
// paper's hierarchical space-partition sampling (§4.3) — recursively
// splitting until every leaf holds at most a target number of points,
// then drawing one representative per leaf.
package index

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// Item is a point payload: a caller-assigned ID at a location.
type Item struct {
	ID int
	P  geom.Point
}

// KDTree is a static 2-d tree over a set of items, built once by
// median splitting (alternating axes).
type KDTree struct {
	items []Item // reordered into tree layout
	nodes []kdNode
	root  int
}

type kdNode struct {
	// item index span [lo, hi) in items; split at mid.
	lo, hi      int
	mid         int
	axis        byte // 0 = X, 1 = Y
	left, right int  // node indices, -1 for leaf children
	bounds      geom.Rect
}

// BuildKDTree constructs a kd-tree over items (copied; the input is not
// modified). An empty input yields an empty tree.
func BuildKDTree(items []Item) *KDTree {
	t := &KDTree{items: make([]Item, len(items)), root: -1}
	copy(t.items, items)
	if len(items) > 0 {
		t.root = t.build(0, len(t.items), 0)
	}
	return t
}

func (t *KDTree) build(lo, hi int, depth int) int {
	axis := byte(depth % 2)
	span := t.items[lo:hi]
	mid := lo + (hi-lo)/2
	nthElement(span, (hi-lo)/2, axis)
	pts := make([]geom.Point, hi-lo)
	for i, it := range span {
		pts[i] = it.P
	}
	n := kdNode{lo: lo, hi: hi, mid: mid, axis: axis, left: -1, right: -1,
		bounds: geom.BoundingRect(pts)}
	idx := len(t.nodes)
	t.nodes = append(t.nodes, n)
	if mid-lo > 0 {
		l := t.build(lo, mid, depth+1)
		t.nodes[idx].left = l
	}
	if hi-(mid+1) > 0 {
		r := t.build(mid+1, hi, depth+1)
		t.nodes[idx].right = r
	}
	return idx
}

// nthElement partially sorts span so that span[k] is the k-th smallest by
// the given axis (a simple quickselect).
func nthElement(span []Item, k int, axis byte) {
	key := func(it Item) float64 {
		if axis == 0 {
			return it.P.X
		}
		return it.P.Y
	}
	lo, hi := 0, len(span)-1
	for lo < hi {
		pivot := key(span[(lo+hi)/2])
		i, j := lo, hi
		for i <= j {
			for key(span[i]) < pivot {
				i++
			}
			for key(span[j]) > pivot {
				j--
			}
			if i <= j {
				span[i], span[j] = span[j], span[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// RangeIDs appends the ID of every item inside r to dst, in tree order,
// and returns it. It is generic so a caller with an integer id type of
// its own gets ids of that type straight from the walk.
func RangeIDs[ID ~int](t *KDTree, r geom.Rect, dst []ID) []ID {
	if t.root < 0 {
		return dst
	}
	return rangeIDs(t, t.root, r, dst)
}

func rangeIDs[ID ~int](t *KDTree, ni int, r geom.Rect, dst []ID) []ID {
	n := &t.nodes[ni]
	if !r.Intersects(n.bounds) {
		return dst
	}
	if r.ContainsRect(n.bounds) {
		for i := n.lo; i < n.hi; i++ {
			dst = append(dst, ID(t.items[i].ID))
		}
		return dst
	}
	if it := &t.items[n.mid]; r.Contains(it.P) {
		dst = append(dst, ID(it.ID))
	}
	if n.left >= 0 {
		dst = rangeIDs(t, n.left, r, dst)
	}
	if n.right >= 0 {
		dst = rangeIDs(t, n.right, r, dst)
	}
	return dst
}

// KNearest returns the k items closest to p, ordered nearest first.
func (t *KDTree) KNearest(p geom.Point, k int) []Item {
	if t.root < 0 || k <= 0 {
		return nil
	}
	h := &nnHeap{}
	t.knnNode(t.root, p, k, h)
	out := make([]Item, len(h.items))
	for i := range out {
		out[i] = h.items[i].it
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P.Dist2(p) < out[j].P.Dist2(p) })
	return out
}

type nnEntry struct {
	it Item
	d  float64
}

// nnHeap is a max-heap on distance holding the current k best.
type nnHeap struct {
	items []nnEntry
}

func (h *nnHeap) worst() float64 {
	if len(h.items) == 0 {
		return math.Inf(1)
	}
	return h.items[0].d
}

func (h *nnHeap) push(e nnEntry, k int) {
	if len(h.items) < k {
		h.items = append(h.items, e)
		h.up(len(h.items) - 1)
		return
	}
	if e.d >= h.items[0].d {
		return
	}
	h.items[0] = e
	h.down(0)
}

func (h *nnHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].d >= h.items[i].d {
			return
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *nnHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.items) && h.items[l].d > h.items[big].d {
			big = l
		}
		if r < len(h.items) && h.items[r].d > h.items[big].d {
			big = r
		}
		if big == i {
			return
		}
		h.items[i], h.items[big] = h.items[big], h.items[i]
		i = big
	}
}

func (t *KDTree) knnNode(ni int, p geom.Point, k int, h *nnHeap) {
	n := &t.nodes[ni]
	if len(h.items) == k && rectDist2(n.bounds, p) > h.worst() {
		return
	}
	it := t.items[n.mid]
	h.push(nnEntry{it: it, d: it.P.Dist2(p)}, k)
	var first, second int
	var onLeft bool
	if n.axis == 0 {
		onLeft = p.X < it.P.X
	} else {
		onLeft = p.Y < it.P.Y
	}
	if onLeft {
		first, second = n.left, n.right
	} else {
		first, second = n.right, n.left
	}
	if first >= 0 {
		t.knnNode(first, p, k, h)
	}
	if second >= 0 {
		t.knnNode(second, p, k, h)
	}
}

// Leaves partitions the indexed items into groups of at most maxLeaf
// points by descending the kd-tree — the partition used by kd-tree
// sampling (§4.3).
func (t *KDTree) Leaves(maxLeaf int) [][]Item {
	if t.root < 0 {
		return nil
	}
	if maxLeaf < 1 {
		maxLeaf = 1
	}
	var out [][]Item
	var walk func(ni int)
	walk = func(ni int) {
		n := &t.nodes[ni]
		if n.hi-n.lo <= maxLeaf {
			leaf := make([]Item, n.hi-n.lo)
			copy(leaf, t.items[n.lo:n.hi])
			out = append(out, leaf)
			return
		}
		// The median item travels with the smaller side to keep groups
		// contiguous: emit it with the left child.
		if n.left >= 0 {
			walk(n.left)
		}
		out[len(out)-1] = append(out[len(out)-1], t.items[n.mid])
		if n.right >= 0 {
			walk(n.right)
		}
	}
	walk(t.root)
	return out
}

// rectDist2 returns the squared distance from p to the nearest point of r
// (0 when p is inside r).
func rectDist2(r geom.Rect, p geom.Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return dx*dx + dy*dy
}
