// Package core implements the paper's primary contribution: privacy-aware
// spatiotemporal range counting with discrete differential 1-forms on the
// planar sensing graph.
//
// Movements of objects are never stored as trajectories. Instead, every
// road (mobility-graph edge ★e) carries a tracking form on its dual
// sensing edge e: two monotone sequences of crossing timestamps, one per
// direction (the paper's γ⁺/γ⁻ pair, Eq. 8). Region counts are obtained by
// integrating `in − out` along the region perimeter (Theorems 4.1–4.3),
// which cancels objects that leave and re-enter — the identifier-free
// solution to the double counting problem.
//
// Objects enter and leave the world through gateway junctions. The
// paper's ★v_ext infinity node is an ordinary node of the closed graph
// here: every gateway has a world edge to it, tracked like a road
// (roadnet.World.WorldEdge), and the world edges of a region's gateways
// are part of its perimeter — which is what makes perimeter integration
// exact on the unsampled graph (see the property tests in
// theorems_test.go).
package core

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Observability counters (internal/obs): memo effectiveness of the
// perimeter cache. The hit rate is 1 − scans/calls; a healthy steady
// state scans each perimeter once.
var (
	mCutCalls = obs.Default.Counter("core.cutroads_calls")
	mCutScans = obs.Default.Counter("core.cutroads_scans")
)

// Region is a query region expressed as a union of sensing-graph faces,
// i.e. a set of junctions of the mobility graph (vertex–face duality).
//
// A Region is immutable once its perimeter is materialized: CutRoads
// and Perimeter memoize it on first call, and every later use
// (counting, perimeter sensors, cost accounting) reads the cached
// 1-chain. After that first call a Region is safe for concurrent
// readers. A region NewCompiledRegion built is handed its perimeter
// finished and is safe for concurrent readers from the start.
type Region struct {
	w         *roadnet.World
	junctions []planar.NodeID
	// inside is the membership Contains reads, indexed by junction: built
	// by NewRegion, and by the first Contains of a compiled region, which
	// otherwise never needs a world-sized array.
	inside     []bool
	insideOnce sync.Once
	// perimeter, when non-nil, is the memoized 1-chain Perimeter returns;
	// its first cuts entries are the cut roads. NewRegion's regions build
	// it in cutOnce; compiled regions are handed it, with their perimeter
	// sensors.
	perimeter []CutRoad
	cuts      int
	sensors   []planar.NodeID
	compiled  bool
	cutOnce   sync.Once
	// scans counts full perimeter scans actually performed — the
	// instrumentation hook the query tests assert single-scan behaviour
	// with. It is 0 or 1 for any Region.
	scans int
}

// NewRegion builds a Region from a set of junctions of w's mobility
// graph. Duplicate IDs are tolerated; out-of-range IDs are an error.
func NewRegion(w *roadnet.World, junctions []planar.NodeID) (*Region, error) {
	r := &Region{w: w, inside: make([]bool, w.Star.NumNodes())}
	if len(junctions) > 0 {
		r.junctions = make([]planar.NodeID, 0, len(junctions))
	}
	for _, j := range junctions {
		if j < 0 || int(j) >= len(r.inside) {
			return nil, fmt.Errorf("core: junction %d out of range [0,%d)", j, len(r.inside))
		}
		if !r.inside[j] {
			r.inside[j] = true
			r.junctions = append(r.junctions, j)
		}
	}
	return r, nil
}

// NewCompiledRegion builds a Region whose perimeter the caller has
// already derived — the sampled graph reads one off G̃'s face tables
// (internal/sampled) without scanning a junction. junctions are distinct
// junctions of w; perimeter is what Perimeter returns, its first cuts
// entries the cut roads and the rest the world edges of the gateways
// inside, ascending; sensors is what PerimeterSensors returns. The
// caller asserts all three are what NewRegion's region over the same
// junctions would compute. The region keeps the slices, performs no
// perimeter scan, and builds no world-sized array unless Contains is
// called.
func NewCompiledRegion(w *roadnet.World, junctions []planar.NodeID, perimeter []CutRoad, cuts int, sensors []planar.NodeID) *Region {
	if perimeter == nil {
		perimeter = []CutRoad{} // non-nil marks the memo as computed
	}
	return &Region{w: w, junctions: junctions, perimeter: perimeter, cuts: cuts, sensors: sensors, compiled: true}
}

// World returns the world the region is defined on.
func (r *Region) World() *roadnet.World { return r.w }

// Contains reports whether junction j lies in the region.
func (r *Region) Contains(j planar.NodeID) bool {
	r.insideOnce.Do(r.fillInside)
	return j >= 0 && int(j) < len(r.inside) && r.inside[j]
}

// fillInside builds a compiled region's membership array.
func (r *Region) fillInside() {
	if r.inside != nil {
		return
	}
	r.inside = make([]bool, r.w.Star.NumNodes())
	for _, j := range r.junctions {
		r.inside[j] = true
	}
}

// Junctions returns the junctions of the region. Callers must not modify
// the returned slice.
func (r *Region) Junctions() []planar.NodeID { return r.junctions }

// Size returns the number of faces (junctions) in the region — the
// paper's ω(σ) cell weight.
func (r *Region) Size() int { return len(r.junctions) }

// Empty reports whether the region contains no faces.
func (r *Region) Empty() bool { return len(r.junctions) == 0 }

// CutRoad is a perimeter element of a Region: a tracked edge with
// exactly one end inside — a road, or the world edge of a junction of
// the region. Crossings toward Inside are inflow (γ⁺), away are outflow
// (γ⁻) when integrating the boundary.
type CutRoad struct {
	Road   planar.EdgeID
	Inside planar.NodeID
}

// CutRoads returns the perimeter of the region: every road with exactly
// one endpoint inside, each reported once. This is the 1-chain ∂Q_R the
// differential forms are integrated along.
//
// The scan runs at most once per Region; the result is memoized, so the
// query engine and the counting theorems share a single perimeter
// computation. Callers must not modify the returned slice.
func (r *Region) CutRoads() []CutRoad {
	mCutCalls.Inc()
	p := r.Perimeter()
	return p[:r.cuts:r.cuts]
}

// Perimeter returns the 1-chain the counting theorems integrate along:
// CutRoads() followed by the world edges of the gateways inside the
// region, ascending — every edge of the closed graph with exactly one
// end inside (★v_ext never is). It is built with CutRoads, once per
// Region, from the world alone, so a compiled plan carries it and a
// query pays nothing for it. Callers must not modify the result.
func (r *Region) Perimeter() []CutRoad {
	if !r.compiled {
		r.cutOnce.Do(r.materialize)
	}
	return r.perimeter
}

// materialize builds the memoized perimeter of a NewRegion region: the
// cut-road scan, then the world edges of the region's gateways. The
// gateway pass costs O(gateways), O(√V) on a planar city.
func (r *Region) materialize() {
	r.scans++
	mCutScans.Inc()
	out := []CutRoad{} // non-nil marks the memo as computed
	for _, j := range r.junctions {
		for _, e := range r.w.Star.Incident(j) {
			if !r.inside[r.w.Star.Edge(e).Other(j)] {
				out = append(out, CutRoad{Road: e, Inside: j})
			}
		}
	}
	r.cuts = len(out)
	for _, g := range r.w.AscendingGateways() {
		if r.inside[g] {
			out = append(out, CutRoad{Road: r.w.WorldEdge(g), Inside: g})
		}
	}
	r.perimeter = out
}

// PerimeterScans reports how many full perimeter scans the Region has
// performed — 0 before the first CutRoads call, and always for a region
// NewCompiledRegion built; 1 after. Instrumentation for tests and cost
// accounting.
func (r *Region) PerimeterScans() int { return r.scans }

// sensorMarks pools the visited marks of PerimeterSensors: *[]bool over
// dual node ids, all false between uses. Engines over different worlds
// share the process, so a fetched slice may be too short for this one.
var sensorMarks sync.Pool

// PerimeterSensors returns the distinct sensing-graph nodes flanking the
// region's cut roads — the sensors a perimeter-routed query must access —
// in the order the cut roads first name them. A compiled region returns
// the list it was built with; callers must not modify it.
func (r *Region) PerimeterSensors() []planar.NodeID {
	if r.compiled {
		return r.sensors
	}
	d := r.w.Dual
	marks, _ := sensorMarks.Get().(*[]bool)
	if marks == nil || len(*marks) < d.G.NumNodes() {
		seen := make([]bool, d.G.NumNodes())
		marks = &seen
	}
	seen := *marks
	cuts := r.CutRoads()
	var out []planar.NodeID
	if len(cuts) > 0 {
		out = make([]planar.NodeID, 0, 2*len(cuts)) // two flanking sensors a cut at most
	}
	for _, cr := range cuts {
		de := d.EdgeOf[cr.Road]
		if de == planar.NoEdge {
			continue // bridge road: no dual sensor pair
		}
		e := d.G.Edge(de)
		for _, n := range []planar.NodeID{e.U, e.V} {
			if n != d.OuterNode && !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	for _, n := range out {
		seen[n] = false
	}
	sensorMarks.Put(marks)
	return out
}

// Counter is the read contract of a tracking-form store, implemented in
// full by every store (the exact Store, the learned store, a sharded
// partition.Set, a cluster cell): the paper's primitive — the
// per-direction count C(γ±, t) on a sensing edge — and the two fused
// perimeter integrals the counting theorems are. The exact Store
// answers by search over the stored timestamps, the learned store by
// model inference. Edges are tracked edges of the closed graph: roads
// and world edges alike.
type Counter interface {
	// RoadCrossings returns the number of crossing events on edge with
	// destination end toward, up to and including time t. On gateway
	// g's world edge, toward g counts entries and toward ★v_ext exits.
	RoadCrossings(edge planar.EdgeID, toward planar.NodeID, t float64) float64
	// CountCuts returns the boundary integral at time t (Thms 4.1/4.2):
	//   Σ_cuts [C(γ⁺,t) − C(γ⁻,t)]
	// in one perimeter pass, accumulated in slice order, so that the
	// result is bit-identical to SnapshotCountReference.
	CountCuts(cuts []CutRoad, t float64) float64
	// CutFlow returns the net flow over (t1, t2] (Thm 4.3):
	//   CountCuts(cuts, t2) − CountCuts(cuts, t1)
	// in a single perimeter pass, bit-identical to
	// TransientCountReference.
	CutFlow(cuts []CutRoad, t1, t2 float64) float64
}

// SignedEvent is one entry of an occupancy step function: at instant T
// the number of objects inside changes by Delta.
type SignedEvent struct {
	T     float64
	Delta int
}

// StepLister is the one optional capability of a Counter, behind exact
// static counts: the occupancy step function of a perimeter over a
// window. It is a real difference between stores, observable from the
// type: the exact Store keeps the event sequence, and so does every
// sharded set over exact stores; learned stores discard it (that is
// their whole point) and answer static counts by StaticCountSampled.
type StepLister interface {
	Counter
	// StaticSteps integrates the perimeter cuts once and returns its
	// occupancy step function over (t1, t2]: base is the boundary
	// integral at t1 (CountCuts(cuts, t1)), and one
	// entry per distinct instant of the window at which the crossings
	// do not cancel — T strictly increasing, Delta the instant's net
	// change, never zero — is appended to dst. Occupancy at any t of the
	// window is base plus the deltas up to t.
	//
	// Step functions of disjoint shares of one perimeter add up to the
	// step function of the whole (SumSteps, the same sort-and-collapse as
	// the Store's own), which is what lets a sharded store answer from
	// per-member results; per-member minima would not.
	StaticSteps(cuts []CutRoad, t1, t2 float64, dst []SignedEvent) (base float64, steps []SignedEvent)
}

// SnapshotCount evaluates Theorem 4.1/4.2: the number of objects inside
// the region at time t, as the boundary integral of in − out counts —
// one fused perimeter pass of the store.
func SnapshotCount(c Counter, r *Region, t float64) float64 {
	return c.CountCuts(r.Perimeter(), t)
}

// SnapshotCountReference is the per-edge specification of SnapshotCount:
// two prefix counts per perimeter edge through the primitive alone. It runs
// over any Counter — sharded and remote ones included — and is the
// oracle every store's CountCuts is pinned == to; production code never
// falls back to it.
func SnapshotCountReference(c Counter, r *Region, t float64) float64 {
	var total float64
	for _, cr := range r.Perimeter() {
		outside, head := r.w.TrackedEnds(cr.Road)
		if outside == cr.Inside {
			outside = head
		}
		total += c.RoadCrossings(cr.Road, cr.Inside, t)
		total -= c.RoadCrossings(cr.Road, outside, t)
	}
	return total
}

// TransientCount evaluates Theorem 4.3: the net number of objects that
// entered minus left the region during (t1, t2] — one fused perimeter
// pass of the store. Negative values mean net outflow, as in the paper.
func TransientCount(c Counter, r *Region, t1, t2 float64) float64 {
	return c.CutFlow(r.Perimeter(), t1, t2)
}

// TransientCountReference is the two-snapshot specification of
// TransientCount: two full perimeter walks through the primitive. The
// oracle every store's CutFlow is pinned == to.
func TransientCountReference(c Counter, r *Region, t1, t2 float64) float64 {
	return SnapshotCountReference(c, r, t2) - SnapshotCountReference(c, r, t1)
}

// StaticCount returns min over t∈[t1,t2] of SnapshotCount(t), the
// least occupancy of the region over the window: computed without
// identifiers, it is an upper bound on the number of objects present
// for the whole interval (truth ≤ answer), and the tightest one
// derivable from boundary counts alone. It is exact unless an
// enter/leave pair of two different objects compensates inside the
// window; see DESIGN.md §6.
//
// Tie rule: every event of one instant is applied before the minimum is
// taken — the occupancy is compared once per distinct timestamp, never
// between two crossings stamped alike. A leave and a simultaneous enter
// therefore cancel instead of dipping below any value SnapshotCount
// takes, and the answer is a function of the event multiset alone:
// independent of perimeter order, of how a sharded store splits the
// perimeter, and of how the streams are merged.
func StaticCount(sl StepLister, r *Region, t1, t2 float64) float64 {
	buf := stepBufs.Get().(*[]SignedEvent)
	inside, steps := sl.StaticSteps(r.Perimeter(), t1, t2, (*buf)[:0])
	minInside := inside
	for _, st := range steps {
		inside += float64(st.Delta)
		if inside < minInside {
			minInside = inside
		}
	}
	*buf = steps
	stepBufs.Put(buf)
	return minInside
}

// StaticCountSampled approximates StaticCount on a Counter that is not a
// StepLister (learned stores): the minimum of CountCuts over `samples`
// evenly spaced probe times in [t1, t2] — exactly the instants
// StaticCountSampledReference visits, so the two agree bit for bit.
// samples < 2 is raised to 2 (the interval endpoints).
func StaticCountSampled(c Counter, r *Region, t1, t2 float64, samples int) float64 {
	if samples < 2 {
		samples = 2
	}
	cuts := r.Perimeter()
	step := (t2 - t1) / float64(samples-1)
	min := c.CountCuts(cuts, t1)
	for i := 1; i < samples; i++ {
		if v := c.CountCuts(cuts, t1+step*float64(i)); v < min {
			min = v
		}
	}
	return min
}

// StaticCountSampledReference is the per-edge specification of
// StaticCountSampled: one SnapshotCountReference perimeter walk per
// probe time. The oracle the fused form is pinned == to.
func StaticCountSampledReference(c Counter, r *Region, t1, t2 float64, samples int) float64 {
	if samples < 2 {
		samples = 2
	}
	step := (t2 - t1) / float64(samples-1)
	min := SnapshotCountReference(c, r, t1)
	for i := 1; i < samples; i++ {
		if v := SnapshotCountReference(c, r, t1+step*float64(i)); v < min {
			min = v
		}
	}
	return min
}
