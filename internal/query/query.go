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
	"repro/internal/faults"
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
	mServed   = obs.Default.Counter("query.served")
	mMissed   = obs.Default.Counter("query.missed")
	mDegraded = obs.Default.Counter("query.degraded")
	mErrors   = obs.Default.Counter("query.errors")
	mCuts     = obs.Default.Counter("query.cut_roads_integrated")
)

// Kind selects the query semantics of §3.3.
type Kind int

// The query kinds.
const (
	// Snapshot counts objects inside the region at T1 (Theorem 4.1/4.2;
	// the paper's spatial range count with t1 ≈ t2).
	Snapshot Kind = iota
	// Static counts objects present during the whole interval [T1, T2].
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

// Degradation reports how a fault plan degraded one answer (DESIGN.md
// §8). It is attached to every response of an engine with an installed
// plan; a zero-valued Degradation with Lower == Upper == Count means the
// faults did not touch this query's perimeter.
type Degradation struct {
	// DeadPerimeterSensors is the number of the region's perimeter
	// sensors down at some point of the query horizon ([T1, T2] for
	// interval queries, T1 for snapshots).
	DeadPerimeterSensors int
	// UnobservedCuts is the number of perimeter roads whose flanking
	// sensors are all down during the horizon — their crossing forms
	// could not be collected.
	UnobservedCuts int
	// ReroutedLegs counts collection legs that failed on the sampled
	// graph G̃ and were repaired by rerouting over the shortest surviving
	// path in the full sensing graph G.
	ReroutedLegs int
	// Lower, Upper bound the fault-free count: Count is widened by the
	// maximum possible contribution of every unobserved cut road, so the
	// interval [Lower, Upper] always contains the count a fault-free
	// engine would have returned.
	Lower, Upper float64
	// Retries, Drops, FailedNodes mirror the netsim accounting of the
	// degraded collection (Response.Net carries the full Metrics).
	Retries, Drops, FailedNodes int
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
	// Degradation is non-nil iff a fault plan is installed AND the query
	// was answered; Missed responses carry no degradation report (there
	// is no count to widen). It holds the widened count interval and the
	// failure accounting.
	Degradation *Degradation
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
	// plan, when non-nil, degrades collection: dead sensors and links
	// restrict communication, lossy deliveries are retried, and counts
	// over partially unobservable perimeters are answered as widened
	// intervals instead of errors.
	plan *faults.Plan
	// drops is the engine's deterministic per-delivery drop stream,
	// shared by every network the plan touches.
	drops func() bool
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
	e.net = netsim.NewRestricted(sg.W.Dual.G, sg.DualEdges, nil)
	return e
}

// SetFaultPlan installs (or, with nil, removes) a failure plan. With a
// plan installed every query is answered in degraded mode: dead
// perimeter sensors no longer fail the query — the engine repairs the
// collection route through surviving sensors and widens the answer into
// a [Lower, Upper] interval that still contains the fault-free count
// (Response.Degradation).
//
// The plan's drop stream is stateful, so an engine with a fault plan is
// NOT safe for concurrent queries (matching netsim.Network).
func (e *Engine) SetFaultPlan(p *faults.Plan) {
	e.plan = p
	if p != nil {
		e.drops = p.NewDropStream()
	} else {
		e.drops = nil
	}
	// A fault-state change is an epoch boundary: cached collection costs
	// were simulated over a different surviving graph.
	e.InvalidatePlanCache()
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
		if resp.Degradation != nil {
			mDegraded.Inc()
		}
	}
	return resp, err
}

func (e *Engine) query(req Request, tr *obs.Trace) (*Response, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	tr.Begin(obs.PhaseRegionBuild)
	var key planKey
	var cp *cachedPlan
	if e.cache != nil {
		key = planKeyOf(req)
		cp = e.cache.get(key)
	}
	// fill records whether this query compiled the plan itself and must
	// publish it once fully built (entries are immutable after put).
	fill := cp == nil && e.cache != nil
	if cp == nil {
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
	if e.plan != nil {
		// Degraded answers never memoize cost (the drop stream is
		// stateful), but the compiled region is still reusable.
		if fill {
			e.cache.put(key, cp)
		}
		return e.queryDegraded(resp, cp.region, req, tr)
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
	if cp.hasNet {
		resp.Net = cp.net
	} else {
		resp.Net = e.cost(region, req)
		if fill {
			// The cost simulation is deterministic in (rect, bound) on a
			// fault-free engine, so it is part of the compiled plan.
			cp.net = resp.Net
			cp.hasNet = true
		}
	}
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
func (e *Engine) compilePlan(req Request) (*cachedPlan, error) {
	if e.sg != nil {
		region, exactSize, missed, err := e.sg.ApproximateRect(req.Rect, req.Bound)
		if err != nil {
			return nil, err
		}
		return &cachedPlan{region: region, exactSize: exactSize, missed: missed}, nil
	}
	exact, err := core.NewRegion(e.w, e.w.JunctionsIn(req.Rect))
	if err != nil {
		return nil, err
	}
	return &cachedPlan{region: exact, exactSize: exact.Size(), missed: exact.Empty()}, nil
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

// faultHorizon returns the closed time horizon over which fault state
// is evaluated for req: [T1, T1] for Snapshot, [T1, T2] otherwise. A
// sensor down at any point of the horizon may have missed crossings the
// query depends on, so interval queries treat it as down throughout —
// scheduled outage windows overlapping (T1, T2] degrade Static and
// Transient answers even when every sensor is alive at T1.
func faultHorizon(req Request) (t1, t2 float64) {
	if req.Kind == Snapshot {
		return req.T1, req.T1
	}
	return req.T1, req.T2
}

// queryDegraded answers req under the installed fault plan: counts are
// taken over the observable part of the perimeter and widened into an
// interval covering the unobserved cuts; collection is simulated over
// the surviving communication graph with retry/repair semantics.
func (e *Engine) queryDegraded(resp *Response, region *core.Region, req Request, tr *obs.Trace) (*Response, error) {
	t1, t2 := faultHorizon(req)
	deg := &Degradation{}
	tr.Begin(obs.PhasePerimeter)
	// Partition the perimeter into observed and unobserved cuts: a cut
	// road is unobservable when every sensor flanking it is down at some
	// point of the query horizon.
	cuts := region.CutRoads()
	var observed, unobserved []core.CutRoad
	for _, cr := range cuts {
		if e.cutObserved(cr, t1, t2) {
			observed = append(observed, cr)
		} else {
			unobserved = append(unobserved, cr)
		}
	}
	deg.UnobservedCuts = len(unobserved)
	for _, s := range region.PerimeterSensors() {
		if e.plan.NodeDownIn(s, t1, t2) {
			deg.DeadPerimeterSensors++
		}
	}
	obsRegion := region
	if len(unobserved) > 0 {
		r2, err := core.NewRegion(e.w, region.Junctions())
		if err != nil {
			tr.End(obs.PhasePerimeter)
			return nil, err
		}
		if observed == nil {
			observed = []core.CutRoad{}
		}
		r2.SetCutRoads(observed)
		obsRegion = r2
	}
	resp.Count = e.count(obsRegion, req)
	w := e.widen(req, unobserved)
	deg.Lower, deg.Upper = resp.Count-w, resp.Count+w
	resp.EdgesAccessed = len(observed)
	tr.End(obs.PhasePerimeter)
	tr.Begin(obs.PhaseNetwork)
	resp.Net = e.costDegraded(region, req, deg)
	tr.End(obs.PhaseNetwork)
	deg.Retries, deg.Drops, deg.FailedNodes = resp.Net.Retries, resp.Net.Drops, resp.Net.FailedNodes
	faults.Reroutes.AddInt(deg.ReroutedLegs)
	resp.Degradation = deg
	return resp, nil
}

// cutObserved reports whether the crossing form of a cut road can be
// collected over the whole horizon [t1, t2]: at least one flanking
// sensor stays alive throughout. Bridge roads have no dual sensor pair
// and are handled by the world boundary.
func (e *Engine) cutObserved(cr core.CutRoad, t1, t2 float64) bool {
	de := e.w.Dual.EdgeOf[cr.Road]
	if de == planar.NoEdge {
		return true
	}
	ed := e.w.Dual.G.Edge(de)
	hasSensor := false
	for _, s := range []planar.NodeID{ed.U, ed.V} {
		if s == e.w.Dual.OuterNode {
			continue
		}
		hasSensor = true
		if !e.plan.NodeDownIn(s, t1, t2) {
			return true
		}
	}
	return !hasSensor
}

// widen returns the bound-widening W for the unobserved cuts: each
// unobserved road contributes at most its total (both-direction)
// crossing volume over the relevant horizon, so the fault-free count
// lies within ±W of the observed count. The volume is read from the
// store — in a deployment this is the last aggregate the dead sensor
// reported; the simulator reads the exact store, which makes the
// interval provably sound.
func (e *Engine) widen(req Request, unobserved []core.CutRoad) float64 {
	var w float64
	for _, cr := range unobserved {
		ed := e.w.Star.Edge(cr.Road)
		for _, toward := range []planar.NodeID{ed.U, ed.V} {
			switch req.Kind {
			case Transient:
				// Net flow over (T1,T2] is bounded by the interval volume.
				w += e.store.RoadCrossings(cr.Road, toward, req.T2) -
					e.store.RoadCrossings(cr.Road, toward, req.T1)
			case Snapshot:
				w += e.store.RoadCrossings(cr.Road, toward, req.T1)
			case Static:
				// Snapshot contributions at every probe ≤ T2 are bounded
				// by the prefix volume at T2.
				w += e.store.RoadCrossings(cr.Road, toward, req.T2)
			}
		}
	}
	return w
}

// costDegraded simulates collection over the surviving communication
// graph. Sampled engines route the perimeter over the surviving sampled
// links and repair failed legs over the shortest surviving paths of the
// full sensing graph G; the unsampled engine floods the surviving
// members. Dead or uncollectable sensors are accounted in FailedNodes.
func (e *Engine) costDegraded(region *core.Region, req Request, deg *Degradation) netsim.Metrics {
	t1, t2 := faultHorizon(req)
	aliveNodes, aliveLinks := e.plan.ActiveIn(t1, t2)
	g := e.w.Dual.G
	retries := e.plan.MaxRetries()
	if e.sg != nil {
		sensors := region.PerimeterSensors()
		var targets []planar.NodeID
		dead := 0
		for _, s := range sensors {
			if e.plan.NodeDownIn(s, t1, t2) {
				dead++
			} else {
				targets = append(targets, s)
			}
		}
		if len(targets) == 0 {
			return netsim.Metrics{FailedNodes: len(sensors)}
		}
		primary := netsim.NewRestricted(g, e.sg.ActiveDualEdges(aliveLinks), aliveNodes)
		primary.SetDelivery(e.drops, retries)
		m, unreached := primary.RouteBestEffort(targets[0], targets)
		if len(unreached) > 0 {
			// Perimeter repair: reroute the stragglers over the shortest
			// surviving paths in the full sensing graph G.
			repair := netsim.NewRestricted(g, aliveLinks, aliveNodes)
			repair.SetDelivery(e.drops, retries)
			m2, stillUnreached := repair.RouteBestEffort(targets[0], unreached)
			deg.ReroutedLegs = len(unreached) - len(stillUnreached)
			m.Add(m2)
			m.FailedNodes += len(stillUnreached)
		}
		m.FailedNodes += dead
		return m
	}
	full := netsim.NewRestricted(g, aliveLinks, aliveNodes)
	full.SetDelivery(e.drops, retries)
	members := make(map[planar.NodeID]bool)
	var root planar.NodeID = planar.NoNode
	addMember := func(s planar.NodeID) {
		members[s] = true
		if root == planar.NoNode && !e.plan.NodeDownIn(s, t1, t2) {
			root = s
		}
	}
	for _, s := range e.w.SensorsIn(req.Rect) {
		addMember(s)
	}
	for _, s := range region.PerimeterSensors() {
		addMember(s)
	}
	if root == planar.NoNode {
		return netsim.Metrics{FailedNodes: len(members)}
	}
	m, err := full.Flood(root, members)
	if err != nil {
		return netsim.Metrics{FailedNodes: len(members)}
	}
	return m
}
