package planar

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// buildTriangle returns the 3-cycle used by the doc examples.
func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(3, 3)
	a := g.AddNode(geom.Pt(0, 0))
	b := g.AddNode(geom.Pt(1, 0))
	c := g.AddNode(geom.Pt(0, 1))
	mustEdge(t, g, a, b)
	mustEdge(t, g, b, c)
	mustEdge(t, g, c, a)
	return g
}

func mustEdge(t *testing.T, g *Graph, u, v NodeID) EdgeID {
	t.Helper()
	e, err := g.AddEdge(u, v)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
	return e
}

// buildGrid returns an nx × ny grid graph with unit spacing.
func buildGrid(t *testing.T, nx, ny int) *Graph {
	t.Helper()
	g := NewGraph(nx*ny, nx*ny*2)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			g.AddNode(geom.Pt(float64(x), float64(y)))
		}
	}
	id := func(x, y int) NodeID { return NodeID(y*nx + x) }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				mustEdge(t, g, id(x, y), id(x+1, y))
			}
			if y+1 < ny {
				mustEdge(t, g, id(x, y), id(x, y+1))
			}
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(2, 1)
	a := g.AddNode(geom.Pt(0, 0))
	if _, err := g.AddEdge(a, a); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := g.AddEdge(a, 99); err == nil {
		t.Error("missing node accepted")
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Error("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint did not panic")
		}
	}()
	e.Other(5)
}

func TestTriangleFaces(t *testing.T) {
	g := buildTriangle(t)
	fs, err := g.Faces()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Faces) != 2 {
		t.Fatalf("faces = %d, want 2", len(fs.Faces))
	}
	if err := g.CheckEuler(fs); err != nil {
		t.Error(err)
	}
	outer := fs.Faces[fs.Outer()]
	if !outer.Outer {
		t.Error("outer face not marked")
	}
	if a := outer.Polygon(g).SignedArea(); a >= 0 {
		t.Errorf("outer face area = %v, want negative", a)
	}
	for i := range fs.Faces {
		if FaceID(i) == fs.Outer() {
			continue
		}
		if a := fs.Faces[i].Polygon(g).SignedArea(); a <= 0 {
			t.Errorf("interior face %d area = %v, want positive", i, a)
		}
	}
}

func TestGridFaces(t *testing.T) {
	for _, dim := range [][2]int{{2, 2}, {3, 3}, {4, 6}} {
		g := buildGrid(t, dim[0], dim[1])
		fs, err := g.Faces()
		if err != nil {
			t.Fatalf("%v: %v", dim, err)
		}
		wantInterior := (dim[0] - 1) * (dim[1] - 1)
		if got := len(fs.Faces) - 1; got != wantInterior {
			t.Errorf("%v: interior faces = %d, want %d", dim, got, wantInterior)
		}
		if err := g.CheckEuler(fs); err != nil {
			t.Errorf("%v: %v", dim, err)
		}
		// Every interior face of a unit grid has area 1.
		for i := range fs.Faces {
			if fs.Faces[i].Outer {
				continue
			}
			if a := fs.Faces[i].Polygon(g).SignedArea(); math.Abs(a-1) > 1e-9 {
				t.Errorf("%v: face area = %v, want 1", dim, a)
			}
		}
	}
}

func TestFaceSidesConsistency(t *testing.T) {
	g := buildGrid(t, 4, 4)
	fs, err := g.Faces()
	if err != nil {
		t.Fatal(err)
	}
	// Each edge flanks exactly two faces (possibly equal for bridges; a
	// grid has none).
	for ei := 0; ei < g.NumEdges(); ei++ {
		uv, vu := fs.SidesOf(EdgeID(ei))
		if uv == NoFace || vu == NoFace {
			t.Fatalf("edge %d has unassigned side", ei)
		}
		if uv == vu {
			t.Errorf("edge %d is a bridge in a grid", ei)
		}
	}
}

func TestFacesAreaPartition(t *testing.T) {
	// Interior face areas must sum to the area enclosed by the outer walk.
	g := buildGrid(t, 5, 7)
	fs, err := g.Faces()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := range fs.Faces {
		if !fs.Faces[i].Outer {
			sum += fs.Faces[i].Polygon(g).SignedArea()
		}
	}
	outer := -fs.Faces[fs.Outer()].Polygon(g).SignedArea()
	if math.Abs(sum-outer) > 1e-9 {
		t.Errorf("interior sum %v != outer area %v", sum, outer)
	}
}

func TestDijkstra(t *testing.T) {
	g := buildGrid(t, 5, 5)
	sp := Dijkstra(g, 0)
	// Corner to corner on a unit grid: manhattan distance 8.
	if got := sp.Dist[24]; math.Abs(got-8) > 1e-9 {
		t.Errorf("corner dist = %v, want 8", got)
	}
	if sp.Dist[0] != 0 {
		t.Errorf("source dist = %v, want 0", sp.Dist[0])
	}
}

func TestDijkstraToMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := buildGrid(t, 6, 6)
	for trial := 0; trial < 20; trial++ {
		src := NodeID(rng.Intn(g.NumNodes()))
		dst := NodeID(rng.Intn(g.NumNodes()))
		sp := Dijkstra(g, src)
		nodes, edges, ok := DijkstraTo(g, src, dst)
		if !ok {
			t.Fatal("grid should be connected")
		}
		var sum float64
		for _, e := range edges {
			sum += g.Edge(e).Weight
		}
		if math.Abs(sum-sp.Dist[dst]) > 1e-9 {
			t.Errorf("DijkstraTo dist %v != Dijkstra %v", sum, sp.Dist[dst])
		}
		if nodes[0] != src || nodes[len(nodes)-1] != dst || len(nodes) != len(edges)+1 {
			t.Error("endpoints wrong")
		}
		// Path edges must connect consecutive nodes.
		for i, e := range edges {
			ed := g.Edge(e)
			if !(ed.U == nodes[i] && ed.V == nodes[i+1]) && !(ed.V == nodes[i] && ed.U == nodes[i+1]) {
				t.Fatalf("edge %d does not connect path nodes", i)
			}
		}
	}
}

func TestDijkstraToSelf(t *testing.T) {
	g := buildTriangle(t)
	nodes, edges, ok := DijkstraTo(g, 1, 1)
	if !ok || len(nodes) != 1 || len(edges) != 0 {
		t.Errorf("self path = %v %v %v", nodes, edges, ok)
	}
}

func TestBFSHops(t *testing.T) {
	g := buildGrid(t, 3, 3)
	hops := BFSHops(g, 0)
	if hops[8] != 4 {
		t.Errorf("corner hops = %d, want 4", hops[8])
	}
	if hops[0] != 0 {
		t.Errorf("source hops = %d", hops[0])
	}
}

func TestAvgShortestPathLength(t *testing.T) {
	g := buildGrid(t, 4, 4)
	l := AvgShortestPathLength(g, 0)
	if l <= 0 || l >= 6 {
		t.Errorf("avg path length = %v out of plausible range", l)
	}
	// Sampled estimate should be close to exact.
	ls := AvgShortestPathLength(g, 4)
	if math.Abs(ls-l) > 1.0 {
		t.Errorf("sampled %v vs exact %v", ls, l)
	}
}

func TestConnected(t *testing.T) {
	g := buildTriangle(t)
	if !g.Connected() {
		t.Error("triangle not connected")
	}
	g.AddNode(geom.Pt(9, 9))
	if g.Connected() {
		t.Error("isolated node not detected")
	}
}
