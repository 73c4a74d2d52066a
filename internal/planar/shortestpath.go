package planar

import (
	"container/heap"
	"math"
)

// pqItem is an entry of the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPaths holds single-source shortest-path results over a Graph.
type ShortestPaths struct {
	Source NodeID
	// Dist[n] is the shortest distance from Source to n, +Inf when
	// unreachable.
	Dist []float64
}

// Dijkstra computes shortest distances from src using edge weights.
// Weights must be non-negative (they are Euclidean lengths everywhere in
// this repository). It is the full search DijkstraTo's tests compare
// against.
func Dijkstra(g *Graph, src NodeID) *ShortestPaths {
	sp := &ShortestPaths{Source: src, Dist: make([]float64, g.NumNodes())}
	for i := range sp.Dist {
		sp.Dist[i] = math.Inf(1)
	}
	sp.Dist[src] = 0
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > sp.Dist[it.node] {
			continue // stale entry
		}
		for _, e := range g.Incident(it.node) {
			ed := g.Edge(e)
			o := ed.Other(it.node)
			nd := it.dist + ed.Weight
			if nd < sp.Dist[o] {
				sp.Dist[o] = nd
				heap.Push(q, pqItem{node: o, dist: nd})
			}
		}
	}
	return sp
}

// DijkstraTo runs Dijkstra from src but stops as soon as dst is settled,
// returning the node path (src..dst inclusive) and the edge path, or
// ok=false when dst is unreachable.
func DijkstraTo(g *Graph, src, dst NodeID) (nodes []NodeID, edges []EdgeID, ok bool) {
	if src == dst {
		return []NodeID{src}, nil, true
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	prev := make([]EdgeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = NoEdge
	}
	dist[src] = 0
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, e := range g.Incident(it.node) {
			ed := g.Edge(e)
			o := ed.Other(it.node)
			nd := it.dist + ed.Weight
			if nd < dist[o] {
				dist[o] = nd
				prev[o] = e
				heap.Push(q, pqItem{node: o, dist: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, nil, false
	}
	// Reconstruct backwards.
	for at := dst; at != src; {
		e := prev[at]
		edges = append(edges, e)
		nodes = append(nodes, at)
		at = g.Edge(e).Other(at)
	}
	nodes = append(nodes, src)
	reverseNodes(nodes)
	reverseEdges(edges)
	return nodes, edges, true
}

func reverseNodes(s []NodeID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func reverseEdges(s []EdgeID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// BFSHops returns the minimum hop count from src to every node, -1 when
// unreachable. Used by the network simulator where per-hop cost is
// uniform.
func BFSHops(g *Graph, src NodeID) []int {
	hops := make([]int, g.NumNodes())
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range g.Incident(n) {
			o := g.Edge(e).Other(n)
			if hops[o] < 0 {
				hops[o] = hops[n] + 1
				queue = append(queue, o)
			}
		}
	}
	return hops
}

// AvgShortestPathLength estimates the mean shortest-path length (in hops)
// of g by running BFS from up to sampleSources evenly spaced sources.
// It implements the ℓ_G quantity of the paper's cost model (§4.9).
func AvgShortestPathLength(g *Graph, sampleSources int) float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	if sampleSources <= 0 || sampleSources > n {
		sampleSources = n
	}
	step := n / sampleSources
	if step == 0 {
		step = 1
	}
	var total float64
	var count int
	for s := 0; s < n; s += step {
		hops := BFSHops(g, NodeID(s))
		for _, h := range hops {
			if h > 0 {
				total += float64(h)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}
