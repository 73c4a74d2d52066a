// Package query is the spatiotemporal range-query engine: it dispatches a
// rectangular query (§4.6) against either the full sensing graph G or a
// sampled graph G̃, evaluates the requested count with the differential-
// form theorems of internal/core, and accounts the communication cost via
// internal/netsim.
package query

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/planar"
	"repro/internal/roadnet"
	"repro/internal/sampled"
)

// Observability metrics (internal/obs): query outcomes and perimeter
// volume. Per-phase latencies are recorded by the obs.Trace span
// context carried through Request.Trace (or opened here when the
// caller did not supply one).
var (
	mServed = obs.Default.Counter("query.served")
	mMissed = obs.Default.Counter("query.missed")
	mErrors = obs.Default.Counter("query.errors")
	mCuts   = obs.Default.Counter("query.cut_roads_integrated")
)

// Kind selects the query semantics of §3.3.
type Kind int

// The query kinds.
const (
	// Snapshot counts objects inside the region at T1 (Theorem 4.1/4.2;
	// the paper's spatial range count with t1 ≈ t2).
	Snapshot Kind = iota
	// Static is min over t in [T1, T2] of the objects inside: an upper
	// bound on the objects present for the whole interval (DESIGN.md §6).
	Static
	// Transient counts the net flow over (T1, T2] (Theorem 4.3).
	Transient
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Snapshot:
		return "snapshot"
	case Static:
		return "static"
	case Transient:
		return "transient"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Request is one spatiotemporal range count query.
type Request struct {
	// Rect is the spatial range; the query region Q_R is the union of
	// sensing faces (junctions) inside it.
	Rect geom.Rect
	// T1, T2 bound the temporal range. Snapshot queries use T1 only.
	T1, T2 float64
	// Kind selects the count semantics.
	Kind Kind
	// Bound selects lower or upper approximation on sampled graphs;
	// ignored on the unsampled engine.
	Bound sampled.Bound
	// Trace, when non-nil, is the span context the engine records its
	// phase latencies into (region build, perimeter integration,
	// network collection). Callers that wrap the engine — stq.System
	// adds the privacy-release phase — open the trace themselves and
	// Finish it after their own phases; when Trace is nil and
	// instrumentation is enabled, the engine opens and finishes one.
	Trace *obs.Trace
}

// ErrInvalidRequest marks request-shaped failures: the query was
// malformed by the caller, not failed by the engine. The serving layer
// matches it (errors.Is) to answer 400 instead of 500.
var ErrInvalidRequest = fmt.Errorf("query: invalid request")

// Validate reports structural problems with the request. Every error
// wraps ErrInvalidRequest. A NaN time bound is refused on every kind:
// every comparison with NaN is false, so it would slip past the order
// check below and reach the stores, whose searches then count every
// event as ≤ NaN. A NaN rectangle coordinate is refused too: it slips
// past the empty check and selects no junction, which reads as a miss.
// ±Inf bounds and corners are legal. An unknown kind or bound is
// refused: no count arm would answer it.
func (r Request) Validate() error {
	if r.Kind != Snapshot && r.Kind != Static && r.Kind != Transient {
		return fmt.Errorf("%w: unknown kind %v", ErrInvalidRequest, r.Kind)
	}
	if r.Bound != sampled.Lower && r.Bound != sampled.Upper {
		return fmt.Errorf("%w: unknown bound %v", ErrInvalidRequest, r.Bound)
	}
	if lo, hi := r.Rect.Min, r.Rect.Max; math.IsNaN(lo.X) || math.IsNaN(lo.Y) || math.IsNaN(hi.X) || math.IsNaN(hi.Y) {
		return fmt.Errorf("%w: rectangle coordinate is NaN %v", ErrInvalidRequest, r.Rect)
	}
	if r.Rect.Empty() {
		return fmt.Errorf("%w: empty rectangle", ErrInvalidRequest)
	}
	if math.IsNaN(r.T1) || math.IsNaN(r.T2) {
		return fmt.Errorf("%w: time bound is NaN (T1 %v, T2 %v)", ErrInvalidRequest, r.T1, r.T2)
	}
	if r.Kind != Snapshot && r.T2 < r.T1 {
		return fmt.Errorf("%w: T2 %v before T1 %v", ErrInvalidRequest, r.T2, r.T1)
	}
	return nil
}

// Response is the result of one query.
type Response struct {
	// Count is the estimated count (semantics per Request.Kind).
	Count float64
	// Missed is true when a sampled engine could not cover the region
	// (lower approximation empty) — the count is then 0.
	Missed bool
	// Region is the junction set actually counted (after approximation).
	Region *core.Region
	// ExactRegionSize is the junction count of the un-approximated Q_R.
	ExactRegionSize int
	// Net is the simulated communication cost.
	Net netsim.Metrics
	// EdgesAccessed is the number of perimeter sensing edges read.
	EdgesAccessed int
}

// Engine answers queries over one store and an optional sampled graph.
type Engine struct {
	w *roadnet.World
	// store is the exact store: it counts perimeter crossings and lists
	// perimeter step functions (exact static counts).
	store core.StepLister
	// sg, when non-nil, makes this a sampled engine.
	sg *sampled.Graph
	// net simulates communication. Never nil after NewEngine.
	net *netsim.Network
	// cache memoizes compiled plans per canonicalized request region;
	// nil when disabled (see plancache.go).
	cache *planCache
}

// NewEngine builds an engine over the full (unsampled) sensing graph.
func NewEngine(w *roadnet.World, store core.StepLister) *Engine {
	return &Engine{
		w:     w,
		store: store,
		net:   netsim.New(w.Dual.G),
		cache: newPlanCache(DefaultPlanCacheCapacity),
	}
}

// NewSampledEngine builds an engine over a sampled graph G̃. Queries are
// approximated to cluster unions and routed along perimeters only.
func NewSampledEngine(sg *sampled.Graph, store core.StepLister) *Engine {
	e := NewEngine(sg.W, store)
	e.sg = sg
	e.net = netsim.NewRestricted(sg.W.Dual.G, sg.DualEdges)
	return e
}

// Query answers one request.
func (e *Engine) Query(req Request) (*Response, error) {
	tr := req.Trace
	if tr == nil {
		// Standalone use (no wrapping System): own the trace. StartTrace
		// returns nil while instrumentation is disabled, and a nil Trace
		// no-ops everywhere, so the disabled path registers no defer work
		// beyond two nil calls.
		tr = obs.Default.StartTrace(req.Kind.String())
		req.Trace = tr
		defer tr.Finish()
	}
	resp, err := e.query(req, tr)
	switch {
	case err != nil:
		mErrors.Inc()
	case resp.Missed:
		mMissed.Inc()
	default:
		mServed.Inc()
		mCuts.AddInt(resp.EdgesAccessed)
	}
	return resp, err
}

func (e *Engine) query(req Request, tr *obs.Trace) (*Response, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	tr.Begin(obs.PhaseRegionBuild)
	var key planKey
	var cp cachedPlan
	hit := false
	if e.cache != nil {
		key = planKeyOf(req)
		cp, hit = e.cache.get(key)
	}
	// compiled records whether this query compiled the plan itself; fill
	// whether it must then publish it once fully built (entries are
	// immutable after put).
	compiled := !hit
	fill := compiled && e.cache != nil
	if compiled {
		var err error
		if cp, err = e.compilePlan(req); err != nil {
			tr.End(obs.PhaseRegionBuild)
			return nil, err
		}
	}
	tr.End(obs.PhaseRegionBuild)
	resp := &Response{Region: cp.region, ExactRegionSize: cp.exactSize}
	if cp.missed {
		resp.Missed = true
		if fill {
			e.cache.put(key, cp)
		}
		return resp, nil
	}
	region := cp.region
	tr.Begin(obs.PhasePerimeter)
	resp.Count = e.count(region, req)
	// Region.CutRoads is memoized, so this reads the perimeter the count
	// above already materialized instead of rescanning the region (the
	// query tests assert the single-scan behaviour).
	resp.EdgesAccessed = len(region.CutRoads())
	tr.End(obs.PhasePerimeter)
	tr.Begin(obs.PhaseNetwork)
	if compiled {
		// The cost simulation is deterministic in (rect, bound), so it is
		// part of the compiled plan.
		cp.net = e.cost(region, req)
	}
	resp.Net = cp.net
	tr.End(obs.PhaseNetwork)
	if fill {
		e.cache.put(key, cp)
	}
	return resp, nil
}

// compilePlan builds the spatial plan of req: the (possibly
// approximated) region and the missed verdict. A sampled engine compiles
// from G̃'s faces and never lists the junctions in the rect. Counts are
// never part of a plan — they are evaluated against the live store on
// every query.
func (e *Engine) compilePlan(req Request) (cachedPlan, error) {
	if e.sg != nil {
		region, exactSize, missed, err := e.sg.ApproximateRect(req.Rect, req.Bound)
		if err != nil {
			return cachedPlan{}, err
		}
		return cachedPlan{region: region, exactSize: exactSize, missed: missed}, nil
	}
	exact, err := core.NewRegion(e.w, e.w.JunctionsIn(req.Rect))
	if err != nil {
		return cachedPlan{}, err
	}
	return cachedPlan{region: exact, exactSize: exact.Size(), missed: exact.Empty()}, nil
}

func (e *Engine) count(region *core.Region, req Request) float64 {
	switch req.Kind {
	case Snapshot:
		return core.SnapshotCount(e.store, region, req.T1)
	case Static:
		return core.StaticCount(e.store, region, req.T1, req.T2)
	case Transient:
		return core.TransientCount(e.store, region, req.T1, req.T2)
	}
	return 0
}

// cost simulates the communication of the query: sampled engines route
// along the region perimeter; the unsampled engine floods every sensor
// inside the query rectangle (§5.4).
func (e *Engine) cost(region *core.Region, req Request) netsim.Metrics {
	if e.sg != nil {
		sensors := region.PerimeterSensors()
		if len(sensors) == 0 {
			return netsim.Metrics{}
		}
		m, err := e.net.Route(sensors[0], sensors)
		if err != nil {
			// Restricted links can disconnect perimeter segments; fall
			// back to counting the perimeter sensors themselves.
			return netsim.Metrics{NodesAccessed: len(sensors)}
		}
		return m
	}
	members := make(map[planar.NodeID]bool)
	var root planar.NodeID = planar.NoNode
	for _, s := range e.w.SensorsIn(req.Rect) {
		members[s] = true
		if root == planar.NoNode {
			root = s
		}
	}
	// Perimeter sensors participate too (they hold the boundary forms).
	for _, s := range region.PerimeterSensors() {
		members[s] = true
		if root == planar.NoNode {
			root = s
		}
	}
	if root == planar.NoNode {
		return netsim.Metrics{}
	}
	m, err := e.net.Flood(root, members)
	if err != nil {
		return netsim.Metrics{NodesAccessed: len(members)}
	}
	// Flooding may not reach members outside the connected component of
	// the region; count them as accessed via the dispatcher.
	if m.NodesAccessed < len(members) {
		m.Messages += len(members) - m.NodesAccessed
		m.NodesAccessed = len(members)
	}
	return m
}
