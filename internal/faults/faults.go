// Package faults defines deterministic, seedable failure plans for the
// in-network collection substrate. A Spec declares the failure model —
// crash-stop sensors, permanently dead links, a per-delivery drop
// probability, and scheduled outage windows — and Compile samples it
// against a concrete sensing graph into a Plan whose answers are a pure
// function of the seed. Identical seeds therefore reproduce identical
// degraded behaviour end to end, which is what lets
// TestDegradedDeterministic (internal/query) assert reproducibility.
//
// The taxonomy follows the failure models of the road-coverage and
// robust-sensing literature (see DESIGN.md §8): crash-stop is permanent
// (a sensor stops participating forever), windows are transient (down
// only while the query time falls inside the window), and drops model
// lossy links whose deliveries are retried under a bounded budget.
package faults

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/obs"
	"repro/internal/planar"
)

// Observability metrics (internal/obs). Rerouted collection legs are
// counted here, in the fault namespace, by the query engine's repair
// path; crashed sensors are set when a plan is compiled.
var (
	mPlans   = obs.Default.Counter("faults.plans_compiled")
	mCrashed = obs.Default.Gauge("faults.crashed_sensors")

	// Reroutes counts perimeter legs repaired over the full surviving
	// sensing graph after failing on the sampled graph.
	Reroutes = obs.Default.Counter("faults.rerouted_legs")
)

// Window schedules a transient outage: during [Start, End) an additional
// Frac fraction of sensors is down (maintenance, battery brown-out,
// weather). Window membership is sampled independently per window from
// the plan seed.
type Window struct {
	// Start, End bound the outage in query time, half-open [Start, End).
	Start, End float64
	// Frac is the fraction of sensors down during the window.
	Frac float64
}

// Spec declares a failure model to compile against a sensing graph.
// The zero Spec is a valid "no faults" plan.
type Spec struct {
	// Seed drives every sampling decision of the plan. Equal seeds on
	// equal graphs produce identical plans and identical drop streams.
	Seed int64
	// SensorCrash is the fraction of sensors that crash-stop: they never
	// participate in collection and their tracking data is unobservable.
	SensorCrash float64
	// LinkDead is the fraction of communication links permanently dead.
	LinkDead float64
	// DropProb is the probability that any single link delivery is lost.
	// Lost deliveries are retried up to MaxRetries times (see netsim).
	DropProb float64
	// MaxRetries bounds redelivery attempts per link delivery; after
	// 1+MaxRetries losses the delivery times out and the leg fails.
	MaxRetries int
	// Windows lists scheduled transient outages.
	Windows []Window
}

// Validate reports structural problems with the spec.
func (s Spec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"SensorCrash", s.SensorCrash}, {"LinkDead", s.LinkDead}, {"DropProb", s.DropProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s %v outside [0,1]", p.name, p.v)
		}
	}
	if s.DropProb == 1 {
		return fmt.Errorf("faults: DropProb 1 makes every delivery time out")
	}
	if s.MaxRetries < 0 {
		return fmt.Errorf("faults: negative MaxRetries %d", s.MaxRetries)
	}
	for i, w := range s.Windows {
		if w.End < w.Start {
			return fmt.Errorf("faults: window %d ends %v before it starts %v", i, w.End, w.Start)
		}
		if w.Frac < 0 || w.Frac > 1 {
			return fmt.Errorf("faults: window %d fraction %v outside [0,1]", i, w.Frac)
		}
	}
	return nil
}

// Plan is a Spec compiled against a concrete sensing graph: every
// sampling decision is materialized, so lookups are deterministic.
type Plan struct {
	spec     Spec
	numNodes int
	numEdges int
	crashed  map[planar.NodeID]bool
	deadLink map[planar.EdgeID]bool
	// windowDown[i] is the extra sensor set down during spec.Windows[i].
	windowDown []map[planar.NodeID]bool
}

// Compile samples spec against a graph with the given node and edge
// counts. Nodes listed in immortal never fail (the engine passes the
// dual outer node, which is not a physical sensor).
func Compile(spec Spec, numNodes, numEdges int, immortal ...planar.NodeID) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if numNodes < 0 || numEdges < 0 {
		return nil, fmt.Errorf("faults: negative graph size %d/%d", numNodes, numEdges)
	}
	safe := make(map[planar.NodeID]bool, len(immortal))
	for _, v := range immortal {
		safe[v] = true
	}
	p := &Plan{
		spec:     spec,
		numNodes: numNodes,
		numEdges: numEdges,
		crashed:  make(map[planar.NodeID]bool),
		deadLink: make(map[planar.EdgeID]bool),
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	// Sampling order is fixed (nodes, links, then each window) so the
	// plan is a pure function of (spec, graph size).
	for v := 0; v < numNodes; v++ {
		if rng.Float64() < spec.SensorCrash && !safe[planar.NodeID(v)] {
			p.crashed[planar.NodeID(v)] = true
		}
	}
	for e := 0; e < numEdges; e++ {
		if rng.Float64() < spec.LinkDead {
			p.deadLink[planar.EdgeID(e)] = true
		}
	}
	for _, w := range spec.Windows {
		down := make(map[planar.NodeID]bool)
		for v := 0; v < numNodes; v++ {
			if rng.Float64() < w.Frac && !safe[planar.NodeID(v)] {
				down[planar.NodeID(v)] = true
			}
		}
		p.windowDown = append(p.windowDown, down)
	}
	mPlans.Inc()
	mCrashed.Set(float64(len(p.crashed)))
	return p, nil
}

// NodeDown reports whether sensor v is down at time t: crashed-stop, or
// inside a scheduled window that sampled it.
func (p *Plan) NodeDown(v planar.NodeID, t float64) bool {
	return p.NodeDownIn(v, t, t)
}

// NodeDownIn reports whether sensor v is down at any point of the
// closed horizon [t1, t2]: crash-stop, or sampled into a scheduled
// window overlapping the horizon. Interval queries use this so that an
// outage anywhere inside [T1, T2] marks the sensor's data unobservable;
// NodeDownIn(v, t, t) == NodeDown(v, t).
func (p *Plan) NodeDownIn(v planar.NodeID, t1, t2 float64) bool {
	if p.crashed[v] {
		return true
	}
	for i, w := range p.spec.Windows {
		if w.overlaps(t1, t2) && p.windowDown[i][v] {
			return true
		}
	}
	return false
}

// overlaps reports whether the half-open window [Start, End) intersects
// the closed horizon [t1, t2].
func (w Window) overlaps(t1, t2 float64) bool {
	return w.Start <= t2 && w.End > t1
}

// DeadNodesAt counts the distinct sensors down at time t. A sensor
// independently sampled into several overlapping windows counts once.
func (p *Plan) DeadNodesAt(t float64) int {
	n := len(p.crashed)
	var seen map[planar.NodeID]bool
	for i, w := range p.spec.Windows {
		if t < w.Start || t >= w.End {
			continue
		}
		if seen == nil {
			seen = make(map[planar.NodeID]bool)
		}
		for v := range p.windowDown[i] {
			if !p.crashed[v] && !seen[v] {
				seen[v] = true
				n++
			}
		}
	}
	return n
}

// ActiveAt materializes the surviving communication graph at time t as
// the active-node/edge restriction maps netsim.NewRestricted consumes.
func (p *Plan) ActiveAt(t float64) (nodes map[planar.NodeID]bool, links map[planar.EdgeID]bool) {
	return p.ActiveIn(t, t)
}

// ActiveIn materializes the pessimistic surviving communication graph
// over the closed horizon [t1, t2]: a sensor down at any point of the
// horizon is excluded (see NodeDownIn). ActiveIn(t, t) == ActiveAt(t).
func (p *Plan) ActiveIn(t1, t2 float64) (nodes map[planar.NodeID]bool, links map[planar.EdgeID]bool) {
	nodes = make(map[planar.NodeID]bool, p.numNodes)
	for v := 0; v < p.numNodes; v++ {
		if !p.NodeDownIn(planar.NodeID(v), t1, t2) {
			nodes[planar.NodeID(v)] = true
		}
	}
	links = make(map[planar.EdgeID]bool, p.numEdges)
	for e := 0; e < p.numEdges; e++ {
		if !p.deadLink[planar.EdgeID(e)] {
			links[planar.EdgeID(e)] = true
		}
	}
	return nodes, links
}

// MaxRetries returns the per-delivery retry budget.
func (p *Plan) MaxRetries() int { return p.spec.MaxRetries }

// NewDropStream returns a deterministic per-delivery drop decider seeded
// from the plan, or nil when the spec has no drop probability. Each call
// starts a fresh stream. The stream is internally synchronized, so
// calling it from concurrent collections is memory-safe; the *sequence*
// each caller observes then depends on the interleaving, so degraded
// metrics are only reproducible when deliveries are drawn from a single
// goroutine at a time.
func (p *Plan) NewDropStream() func() bool {
	if p.spec.DropProb <= 0 {
		return nil
	}
	// Decorrelate from the compile-time stream with a fixed offset.
	rng := rand.New(rand.NewSource(p.spec.Seed ^ 0x5eed0fa))
	prob := p.spec.DropProb
	var mu sync.Mutex
	return func() bool {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64() < prob
	}
}
