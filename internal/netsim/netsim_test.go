package netsim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/planar"
)

func grid(t *testing.T, nx, ny int) *planar.Graph {
	t.Helper()
	g := planar.NewGraph(nx*ny, nx*ny*2)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			g.AddNode(geom.Pt(float64(x), float64(y)))
		}
	}
	id := func(x, y int) planar.NodeID { return planar.NodeID(y*nx + x) }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				if _, err := g.AddEdge(id(x, y), id(x+1, y)); err != nil {
					t.Fatal(err)
				}
			}
			if y+1 < ny {
				if _, err := g.AddEdge(id(x, y), id(x, y+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

func TestFloodCoversRegion(t *testing.T) {
	g := grid(t, 5, 5)
	n := New(g)
	members := make(map[planar.NodeID]bool)
	for i := 0; i < 10; i++ {
		members[planar.NodeID(i)] = true // two bottom rows
	}
	m, err := n.Flood(0, members)
	if err != nil {
		t.Fatal(err)
	}
	if m.NodesAccessed != 10 {
		t.Errorf("nodes accessed = %d, want 10", m.NodesAccessed)
	}
	if m.Messages < 18 { // ≥ 2 per tree link (9 links)
		t.Errorf("messages = %d, want ≥ 18", m.Messages)
	}
	if m.Hops < 1 || m.Hops > 9 {
		t.Errorf("hops = %d implausible", m.Hops)
	}
}

func TestFloodRootValidation(t *testing.T) {
	g := grid(t, 3, 3)
	n := New(g)
	if _, err := n.Flood(0, map[planar.NodeID]bool{5: true}); err == nil {
		t.Error("root outside region accepted")
	}
}

func TestFloodSingleton(t *testing.T) {
	g := grid(t, 3, 3)
	n := New(g)
	m, err := n.Flood(4, map[planar.NodeID]bool{4: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.NodesAccessed != 1 || m.Messages != 0 || m.Hops != 0 {
		t.Errorf("singleton flood = %+v", m)
	}
}

func TestRouteVisitsAllTargets(t *testing.T) {
	g := grid(t, 6, 6)
	n := New(g)
	targets := []planar.NodeID{0, 5, 30, 35} // the four corners
	m, err := n.Route(0, targets)
	if err != nil {
		t.Fatal(err)
	}
	if m.NodesAccessed < 4 {
		t.Errorf("nodes accessed = %d, want ≥ 4", m.NodesAccessed)
	}
	// Lower bound: visiting 3 more corners needs ≥ 15 total hops on a
	// 6×6 grid.
	if m.TotalHops < 15 {
		t.Errorf("total hops = %d, want ≥ 15", m.TotalHops)
	}
	if m.Messages < m.TotalHops {
		t.Errorf("messages %d below total hops %d", m.Messages, m.TotalHops)
	}
}

// TestRouteHopsIsWorstLeg is the regression test for the Hops semantics:
// Route must report the deepest single collection leg in Hops (the
// field's documented "worst-case path length from the entry sensor") and
// the full tour length in TotalHops, not the sum in both.
func TestRouteHopsIsWorstLeg(t *testing.T) {
	g := grid(t, 8, 1) // path 0-1-...-7
	n := New(g)
	// Entry 0; targets at 2, 4, 7: greedy legs of length 2, 2, 3.
	m, err := n.Route(0, []planar.NodeID{2, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalHops != 7 {
		t.Errorf("total hops = %d, want 7", m.TotalHops)
	}
	if m.Hops != 3 {
		t.Errorf("hops = %d, want 3 (worst single leg)", m.Hops)
	}
}

func TestRouteEmptyTargets(t *testing.T) {
	g := grid(t, 3, 3)
	n := New(g)
	if _, err := n.Route(0, nil); err == nil {
		t.Error("empty target set accepted")
	}
}

func TestRouteSingleTargetAtEntry(t *testing.T) {
	g := grid(t, 3, 3)
	n := New(g)
	m, err := n.Route(4, []planar.NodeID{4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Hops != 0 || m.NodesAccessed != 1 {
		t.Errorf("self route = %+v", m)
	}
}

func TestRestrictedNetworkBlocksLinks(t *testing.T) {
	g := grid(t, 4, 1) // path 0-1-2-3
	// Only the first link active: node 3 unreachable.
	active := map[planar.EdgeID]bool{0: true}
	n := NewRestricted(g, active)
	if _, err := n.Route(0, []planar.NodeID{3}); err == nil {
		t.Error("unreachable target did not error")
	}
	m, err := n.Route(0, []planar.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Hops != 1 {
		t.Errorf("hops = %d, want 1", m.Hops)
	}
}

func TestRestrictedFlood(t *testing.T) {
	g := grid(t, 3, 1)
	active := map[planar.EdgeID]bool{0: true} // 0-1 only
	n := NewRestricted(g, active)
	members := map[planar.NodeID]bool{0: true, 1: true, 2: true}
	m, err := n.Flood(0, members)
	if err != nil {
		t.Fatal(err)
	}
	if m.NodesAccessed != 2 {
		t.Errorf("restricted flood reached %d, want 2", m.NodesAccessed)
	}
}

// routeSums folds a stream of collections into the integers
// TestRouteMetricsPinned pins.
type routeSums struct {
	Nodes, Messages, Hops, TotalHops, Failed int
	Unreached, RouteErrors                   int
	UnreachedHash                            uint64
}

func (s *routeSums) add(m Metrics) {
	s.Nodes += m.NodesAccessed
	s.Messages += m.Messages
	s.Hops += m.Hops
	s.TotalHops += m.TotalHops
	s.Failed += m.FailedNodes
}

// TestRouteMetricsPinned pins the simulator's outputs to the values the
// map-based implementation (commit 045d7a9) produced on seeded inputs:
// the query harness's oracle shares this code, so only recorded numbers
// can see a cost model that drifts. Covered: an unrestricted network, a
// connected link restriction and a disconnecting one (the unreached
// sets are pinned in order); Flood rides along because it walks the
// same adjacency. The sparse row was recorded at commit 1553163 with
// its node restriction lifted.
func TestRouteMetricsPinned(t *testing.T) {
	const nx, ny = 12, 12
	g := grid(t, nx, ny)
	comb := make(map[planar.EdgeID]bool) // every row, joined by column 0
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(planar.EdgeID(e))
		if ed.V == ed.U+1 || int(ed.U)%nx == 0 {
			comb[planar.EdgeID(e)] = true
		}
	}
	rng := rand.New(rand.NewSource(19))
	sparse := make(map[planar.EdgeID]bool)
	for e := 0; e < g.NumEdges(); e++ {
		if rng.Float64() < 0.6 {
			sparse[planar.EdgeID(e)] = true
		}
	}
	want := map[string]routeSums{
		"open":   {Nodes: 1939, Messages: 4142, Hops: 693, TotalHops: 1963, Failed: 732, UnreachedHash: 0x3d9622ca61b4e665},
		"comb":   {Nodes: 2975, Messages: 9508, Hops: 1337, TotalHops: 4699, Failed: 764, UnreachedHash: 0x3d9622ca61b4e665},
		"sparse": {Nodes: 1824, Messages: 4594, Hops: 791, TotalHops: 2258, Failed: 794, Unreached: 103, RouteErrors: 43, UnreachedHash: 0x11a99d278587637a},
	}
	for name, edges := range map[string]map[planar.EdgeID]bool{"open": nil, "comb": comb, "sparse": sparse} {
		n := NewRestricted(g, edges)
		in := rand.New(rand.NewSource(29))
		var got routeSums
		h := fnv.New64a()
		for q := 0; q < 64; q++ {
			targets := make([]planar.NodeID, 1+in.Intn(14))
			for i := range targets {
				targets[i] = planar.NodeID(in.Intn(g.NumNodes()))
			}
			entry := targets[0]
			if q%4 == 3 {
				entry = planar.NodeID(in.Intn(g.NumNodes()))
			}
			m, unreached := n.RouteBestEffort(entry, targets)
			got.add(m)
			got.Unreached += len(unreached)
			for _, u := range unreached {
				fmt.Fprintf(h, "%d,", u)
			}
			fmt.Fprint(h, ";")
			if _, err := n.Route(entry, targets); err != nil {
				got.RouteErrors++
			}
			members := make(map[planar.NodeID]bool, len(targets))
			for _, v := range targets {
				members[v] = true
				members[v+1-2*(v%2)] = true // and its row neighbour
			}
			if fm, err := n.Flood(targets[0], members); err == nil {
				got.add(fm)
			} else {
				got.RouteErrors++
			}
		}
		got.UnreachedHash = h.Sum64()
		if got != want[name] {
			t.Errorf("%s:\n got %#v\nwant %#v", name, got, want[name])
		}
	}
}

// TestBadIDsAreRefusedAndLeaveNoState: node ids come from callers, so an
// id outside the graph is an error (Route, Flood) or an unreached target
// (RouteBestEffort), never a panic, and a refused call leaves no target
// marked pending for the next collection to find.
func TestBadIDsAreRefusedAndLeaveNoState(t *testing.T) {
	call := func(name string, f func()) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s panicked: %v", name, p)
			}
		}()
		f()
	}
	n := New(grid(t, 3, 1))
	call("Route to 7", func() {
		if _, err := n.Route(0, []planar.NodeID{7}); err == nil {
			t.Error("Route to target 7 of 3 nodes accepted")
		}
	})
	call("Route from 7", func() {
		if _, err := n.Route(7, []planar.NodeID{1}); err == nil {
			t.Error("Route from entry 7 of 3 nodes accepted")
		}
	})
	call("Flood from 9", func() {
		if _, err := n.Flood(9, map[planar.NodeID]bool{9: true, 0: true}); err == nil {
			t.Error("Flood from root 9 of 3 nodes accepted")
		}
	})
	call("RouteBestEffort", func() {
		m, unreached := n.RouteBestEffort(0, []planar.NodeID{2, -1, 9, 9})
		if !slices.Equal(unreached, []planar.NodeID{-1, 9}) || m.NodesAccessed != 3 || m.Hops != 2 {
			t.Errorf("got %+v, unreached %v; want 3 nodes, 2 hops, unreached [-1 9]", m, unreached)
		}
	})

	// With 2 cut off, the tour gives up on it while 9 is also a target:
	// the targets it clears then include one outside the graph.
	cut := NewRestricted(grid(t, 3, 1), map[planar.EdgeID]bool{0: true})
	call("RouteBestEffort past a cut", func() {
		m, unreached := cut.RouteBestEffort(0, []planar.NodeID{9, 2, 1})
		if !slices.Equal(unreached, []planar.NodeID{9, 2}) || m.NodesAccessed != 2 || m.Hops != 1 {
			t.Errorf("got %+v, unreached %v; want 2 nodes, 1 hop, unreached [9 2]", m, unreached)
		}
	})

	// Path a-b-c-d: a refused Route(a, {d, 9}) must not leave d pending, or
	// Route(c, {a}) would stop at d, one hop away, and never reach a.
	n = New(grid(t, 4, 1))
	a, c, d := planar.NodeID(0), planar.NodeID(2), planar.NodeID(3)
	call("Route(a, {d, 9})", func() { _, _ = n.Route(a, []planar.NodeID{d, 9}) })
	m, err := n.Route(c, []planar.NodeID{a})
	if err != nil {
		t.Fatal(err)
	}
	if m.NodesAccessed != 3 || m.Hops != 2 {
		t.Errorf("Route(c, {a}) after a refused call = %+v, want 3 nodes accessed and 2 hops", m)
	}
}

// TestEpochWrapKeepsStampsFresh drives a long-lived network across the
// point where its int32 stamps wrap: stale entries of seenAt/accessedAt
// must not pass for the new epoch's.
func TestEpochWrapKeepsStampsFresh(t *testing.T) {
	g := grid(t, 6, 6)
	targets := []planar.NodeID{35, 5, 30, 17, 0}
	want, err := New(g).Route(0, targets)
	if err != nil {
		t.Fatal(err)
	}
	n := New(g)
	n.epoch, n.tour = math.MaxInt32-2, math.MaxInt32-1
	for i := 0; i < 4; i++ { // the wrap falls inside these tours
		got, err := n.Route(0, targets)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("tour %d across the wrap: %+v, fresh network %+v", i, got, want)
		}
	}
	if n.epoch > 32 || n.tour > 32 {
		t.Fatalf("stamps did not wrap: epoch %d tour %d", n.epoch, n.tour)
	}
}
