// Package stq (SpatioTemporal Queries) is the public API of the
// in-network approximate spatiotemporal range-query framework of
// "In-Network Approximate and Efficient Spatiotemporal Range Queries on
// Moving Objects" (EDBT 2024).
//
// The framework answers privacy-aware count queries — how many distinct
// objects are in a spatial region during a time interval — inside a
// sensor network, without ever storing object identifiers or
// trajectories. Its pieces:
//
//   - a planar mobility graph (roads + junctions) and its dual sensing
//     graph (one sensor per city block, one sensing edge per road);
//   - discrete differential 1-forms on the sensing edges: two monotone
//     crossing-timestamp sequences per road, which make region counts a
//     boundary integral and cancel double counting;
//   - sensor placement (uniform / systematic / stratified / kd-tree /
//     QuadTree sampling, or query-adaptive submodular maximization) and a
//     sampled sensing graph G̃ whose perimeters are the only sensors a
//     query touches.
//
// # Quick start
//
//	sys, _ := stq.NewGridCitySystem(stq.DefaultGridOpts(), 42)
//	wl, _ := sys.GenerateWorkload(stq.DefaultMobilityOpts(), 42)
//	sys.Ingest(wl)
//	sys.PlaceSensors(stq.PlacementQuadTree, 64, 42)
//	resp, _ := sys.Query(stq.Query{
//		Rect: sys.Bounds().Expand(-200),
//		T1:   3600, T2: 7200,
//		Kind: stq.Transient,
//	})
//	fmt.Println(resp.Count, resp.NodesAccessed)
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package stq

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/planar"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/roadnet"
	"repro/internal/sampled"
	"repro/internal/sampling"
	"repro/internal/submodular"
	"repro/internal/wal"
)

// Re-exported building blocks. The aliases keep one canonical definition
// in the internal packages while exposing them to library users.
type (
	// Point is a 2-D location.
	Point = geom.Point
	// Rect is an axis-aligned query rectangle.
	Rect = geom.Rect
	// GridOpts configures the jittered-grid synthetic city.
	GridOpts = roadnet.GridOpts
	// RadialOpts configures the ring-and-spoke synthetic city.
	RadialOpts = roadnet.RadialOpts
	// RandomOpts configures the Delaunay-based synthetic city.
	RandomOpts = roadnet.RandomOpts
	// MobilityOpts configures workload generation.
	MobilityOpts = mobility.Opts
	// Workload is a time-ordered stream of crossing events.
	Workload = mobility.Workload
	// NodeID identifies a junction or sensor.
	NodeID = planar.NodeID
	// EdgeID identifies a road or sensing edge.
	EdgeID = planar.EdgeID
	// Kind selects the query semantics.
	Kind = query.Kind
	// Bound selects lower or upper approximation on sampled systems.
	Bound = sampled.Bound
	// SampledOptions configures the sampled graph's connectivity.
	SampledOptions = sampled.Options
	// Event is one identifier-free crossing event for batch ingestion.
	Event = core.Event
	// FaultSpec declares a deterministic failure model (see ApplyFaults).
	FaultSpec = faults.Spec
	// FaultWindow schedules a transient outage inside a FaultSpec.
	FaultWindow = faults.Window
	// Degradation reports how faults degraded one answer.
	Degradation = query.Degradation
	// ObsSnapshot is a point-in-time copy of the observability registry
	// (System.Snapshot).
	ObsSnapshot = obs.Snapshot
	// SlowQuery is one slow-query log entry (SlowQueries).
	SlowQuery = obs.SlowQuery
	// Ordering names the one event-time contract (SetIngestOrdering).
	//
	// Deprecated: ingestion always checks order per sensing-edge
	// direction.
	Ordering = core.Ordering
	// PlanCacheStats snapshots the serving engine's query-plan cache.
	PlanCacheStats = query.PlanCacheStats
)

// OrderPerEdge requires monotone time only per sensing-edge direction —
// the in-network model, where each sensor orders only its own crossings
// — and lets concurrent writers ingest disjoint edge stripes without
// coordination. It is what every system checks.
//
// Deprecated: it is the only contract; see SetIngestOrdering.
const OrderPerEdge = core.OrderPerEdge

// DefaultPlanCacheCapacity is the serving engine's default compiled-plan
// cache size (entries); SetPlanCacheCapacity overrides it, 0 disables.
const DefaultPlanCacheCapacity = query.DefaultPlanCacheCapacity

// Trace phases: indices into SlowQuery.Phases and the per-phase latency
// histograms (query.phase.*).
const (
	// PhaseRegionBuild is region construction (junction range query,
	// cluster approximation).
	PhaseRegionBuild = obs.PhaseRegionBuild
	// PhasePerimeter is perimeter integration over the cut roads.
	PhasePerimeter = obs.PhasePerimeter
	// PhaseNetwork is in-network collection (flood / perimeter routing).
	PhaseNetwork = obs.PhaseNetwork
	// PhasePrivacy is the differentially private release.
	PhasePrivacy = obs.PhasePrivacy
)

// Batch event kinds and constructors (see RecordBatch).
const (
	// EventEnter is a world-entry at a gateway.
	EventEnter = core.EventEnter
	// EventMove is a road traversal.
	EventMove = core.EventMove
	// EventLeave is a world-exit at a gateway.
	EventLeave = core.EventLeave
)

// Batch event constructors.
var (
	// MoveEvent builds a Move batch event.
	MoveEvent = core.MoveEvent
	// EnterEvent builds a world-entry batch event.
	EnterEvent = core.EnterEvent
	// LeaveEvent builds a world-exit batch event.
	LeaveEvent = core.LeaveEvent
)

// Query kinds (see the paper's §3.3).
const (
	// Snapshot counts objects inside the region at T1.
	Snapshot = query.Snapshot
	// Static counts objects present during the whole interval [T1, T2].
	Static = query.Static
	// Transient counts the net in-minus-out flow over (T1, T2].
	Transient = query.Transient
)

// Approximation bounds (§4.6).
const (
	// Lower approximates the query region from inside (count ≤ exact).
	Lower = sampled.Lower
	// Upper approximates from outside (count ≥ exact).
	Upper = sampled.Upper
)

// ErrPrivacyBudgetExhausted reports a private query refused because the
// total ε budget is spent (match with errors.Is). The serving layer
// maps it to HTTP 429 Too Many Requests.
var ErrPrivacyBudgetExhausted = privacy.ErrBudgetExhausted

// ErrInvalidQuery marks a structurally invalid query (empty rectangle,
// inverted interval) — a caller mistake, not an engine failure (match
// with errors.Is). The serving layer maps it to HTTP 400; every other
// engine error is a 500.
var ErrInvalidQuery = query.ErrInvalidRequest

// ErrClusterUnavailable reports an ingest that an involved cluster cell,
// down or unreachable, did not take (match with errors.Is). The serving
// layer maps it to HTTP 503 Service Unavailable. Usually the batch was
// not applied anywhere and the caller should retry later. But when the
// message says the batch is committed, a cell did not confirm its share
// of a batch already past validation: the router keeps that share and
// completes the batch when the cell rejoins, so the batch must not be
// sent again — a resend would count twice.
var ErrClusterUnavailable = cluster.ErrUnavailable

// Convenience constructors for the option structs.
var (
	// DefaultGridOpts is roadnet.DefaultGridOpts.
	DefaultGridOpts = roadnet.DefaultGridOpts
	// DefaultMobilityOpts is mobility.DefaultOpts.
	DefaultMobilityOpts = mobility.DefaultOpts
)

// Placement selects a sensor-placement strategy for PlaceSensors.
type Placement int

// The placement strategies of §4.3 (query-oblivious sampling). For the
// query-adaptive submodular strategy use PlaceSensorsForQueries.
const (
	PlacementUniform Placement = iota
	PlacementSystematic
	PlacementStratified
	PlacementKDTree
	PlacementQuadTree
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case PlacementUniform:
		return "uniform"
	case PlacementSystematic:
		return "systematic"
	case PlacementStratified:
		return "stratified"
	case PlacementKDTree:
		return "kdtree"
	case PlacementQuadTree:
		return "quadtree"
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

func (p Placement) sampler() (sampling.Sampler, error) {
	switch p {
	case PlacementUniform:
		return sampling.Uniform{}, nil
	case PlacementSystematic:
		return sampling.Systematic{}, nil
	case PlacementStratified:
		return sampling.Stratified{}, nil
	case PlacementKDTree:
		return sampling.KDTreeSampler{Randomized: true}, nil
	case PlacementQuadTree:
		return sampling.QuadTreeSampler{Randomized: true}, nil
	}
	return nil, fmt.Errorf("stq: unknown placement %d", int(p))
}

// Connectivity selects how sampled sensors are wired into G̃ (§4.5).
type Connectivity = sampled.Connectivity

// Connectivity methods.
const (
	// Triangulation connects sensors by Delaunay triangulation.
	Triangulation = sampled.Triangulation
	// KNN connects each sensor to its nearest selected neighbours.
	KNN = sampled.KNN
)

// Query is one spatiotemporal range count request.
type Query struct {
	// Rect is the spatial range.
	Rect Rect
	// T1, T2 bound the time interval (T2 unused for Snapshot).
	T1, T2 float64
	// Kind selects the count semantics (default Snapshot).
	Kind Kind
	// Bound selects lower/upper approximation on sampled systems
	// (default Lower).
	Bound Bound
}

// Response reports a query result.
type Response struct {
	// Count is the estimated number of objects.
	Count float64
	// Missed reports that the sampled graph could not cover the region.
	Missed bool
	// RegionFaces is the number of sensing faces actually counted.
	RegionFaces int
	// NodesAccessed, Messages, Hops are the simulated in-network
	// communication costs. Hops is the worst single collection leg;
	// TotalHops is the collector's full tour length.
	NodesAccessed int
	Messages      int
	Hops          int
	TotalHops     int
	// EdgesAccessed is the number of perimeter sensing edges read.
	EdgesAccessed int
	// Degradation is non-nil iff a fault plan is applied (ApplyFaults)
	// and the query produced an answer — Missed responses carry no
	// degradation report. It holds the widened [Lower, Upper] count
	// interval and the failure accounting (dead perimeter sensors,
	// retries, drops). Without privacy the interval is guaranteed to
	// contain the fault-free framework count. With EnablePrivacy active
	// the interval is recentered on the noised Count — the un-noised
	// count is not recoverable from the bounds — so it contains the
	// fault-free count only up to the added geometric noise.
	Degradation *Degradation
}

// Observability metrics of the serving layer (internal/obs).
var (
	sysQueries       = obs.Default.Counter("stq.queries")
	sysMisses        = obs.Default.Counter("stq.misses")
	sysDegraded      = obs.Default.Counter("stq.degraded_queries")
	sysPrivateOK     = obs.Default.Counter("stq.private_releases")
	sysPrivateDenied = obs.Default.Counter("stq.privacy_denied")
	sysEpsSpent      = obs.Default.Gauge("stq.privacy_epsilon_spent")
	sysEvents        = obs.Default.Counter("stq.events_ingested")
	sysRebuilds      = obs.Default.Counter("stq.engine_rebuilds")
	sysEpoch         = obs.Default.Gauge("stq.serving_epoch")
)

// EnableObservability turns on the process-wide instrumentation:
// counters, per-query trace spans, and the slow-query log (internal/obs,
// DESIGN.md §9). Disabled (the default), every instrumentation point is
// a single atomic flag load with no allocation; enabled, the overhead
// on the query path stays under 2% (the benchmark's
// obs.trace_overhead_pct tracks it).
func EnableObservability() { obs.Enable() }

// DisableObservability turns instrumentation back off. Recorded values
// are kept; ResetObservability zeroes them.
func DisableObservability() { obs.Disable() }

// ObservabilityEnabled reports whether instrumentation is on.
func ObservabilityEnabled() bool { return obs.Enabled() }

// ResetObservability zeroes every metric and clears the slow-query log.
func ResetObservability() { obs.Default.Reset() }

// SetSlowQueryThreshold arms the slow-query log: queries at least d
// slow are kept in a bounded ring, readable via SlowQueries or
// Snapshot. d ≤ 0 disables the log.
func SetSlowQueryThreshold(d time.Duration) { obs.Default.SetSlowQueryThreshold(d) }

// SlowQueries returns the logged slow queries, oldest first.
func SlowQueries() []SlowQuery { return obs.Default.SlowQueries() }

// WriteMetrics renders every metric in the Prometheus text exposition
// format.
func WriteMetrics(w io.Writer) error { return obs.Default.WritePrometheus(w) }

// WriteMetricsJSON writes an expvar-style JSON dump of every metric.
func WriteMetricsJSON(w io.Writer) error { return obs.Default.WriteJSON(w) }

// System is a complete in-network query system: a world, its tracking-
// form store, and (after PlaceSensors) a sampled communication graph.
// Construct with NewGridCitySystem / NewRadialCitySystem /
// NewRandomCitySystem, or NewSystem over a custom road network.
//
// # Concurrency
//
// Query, Ingest, and the Record* ingestion calls are safe for
// concurrent use with each other. Configuration calls — PlaceSensors*,
// ClearPlacement, ApplyFaults, ClearFaults, EnablePrivacy,
// EnableTieredHistory, SetPlanCacheCapacity — serialize among
// themselves and publish the new configuration atomically, so a Query
// racing a configuration change observes either the old or the new
// configuration in full, never a torn mix. Ingestion never takes the
// configuration mutex and never republishes: every engine reads the
// live exact store, so an applied batch is answerable at once and the
// plan cache survives it. With a fault plan applied (ApplyFaults),
// concurrent queries remain memory-safe but share the plan's stateful
// drop stream, so per-query degraded metrics are reproducible only when
// queries are issued one at a time.
type System struct {
	world *roadnet.World
	// st is the storage backend every ingestion, accounting and history
	// path drives: the plain store (the engine's direct
	// backend — nothing sits between it and the fused kernels), a
	// partition.Set over several (NewPartitionedSystem, DESIGN.md §14),
	// or a cluster router's set over remote cells (NewClusterSystem,
	// DESIGN.md §16).
	st eventStore
	// store is st when st is the plain store, nil otherwise: cell mode
	// serves it and checkpoints export it directly.
	store *core.Store
	// lay is the spatial layout behind st; nil for the plain store.
	lay *partition.Layout
	// outages, non-nil on cluster routers only, is the accounting that
	// widens answers when cells are down.
	outages ClusterStore

	// serving is the atomically published query-path state: Query loads
	// it once and never touches the mutable configuration below, which
	// is what makes configuration rebuilds safe against in-flight
	// queries.
	serving atomic.Pointer[servingState]

	// mu serializes every configuration mutation (and rebuild/publish).
	mu sync.Mutex
	sg *sampled.Graph
	// releaser and acct implement EnablePrivacy; perQueryEpsilon is
	// spent on every private query.
	releaser        *privacy.CountReleaser
	perQueryEpsilon float64
	acct            *privacy.Accountant
	// plan, when non-nil, degrades every query (ApplyFaults).
	plan *faults.Plan
	// planCacheCap is the plan-cache capacity applied to every rebuilt
	// engine (SetPlanCacheCapacity; 0 disables caching).
	planCacheCap int

	// epoch counts serving-state publications (ServingEpoch).
	epoch atomic.Uint64

	// sealEvery/sealPending/sealerBusy drive the background history
	// sealer (EnableTieredHistory with AutoSealEvery > 0): sealPending
	// accumulates ingested events; once it crosses sealEvery, one
	// goroutine at a time (the busy flag) runs the store's cold-prefix
	// sealer. sealWG lets WaitHistorySeals drain in-flight seals.
	sealEvery   atomic.Int64
	sealPending atomic.Int64
	sealerBusy  atomic.Bool
	sealWG      sync.WaitGroup

	// log, when non-nil, makes the system durable (OpenDurable): one
	// write-ahead log of whole batches, whatever the partition count.
	// dmu serializes {WAL append, store apply} pairs so log order always
	// equals apply order — the invariant crash recovery replays under —
	// and guards closed, which Close sets to refuse further ingestion,
	// and appliedSeq, the last router apply number a cell applied
	// (recordSeq; 0 outside cell mode).
	dmu        sync.Mutex
	log        *wal.Log
	closed     bool
	appliedSeq uint64
}

// eventStore is the storage surface System drives — implemented by the
// single core.Store and by partition.Set, in process or over remote
// cells, so every ingestion, storage-accounting, and tiered-history
// path is written once.
type eventStore interface {
	core.Counter
	core.StepLister
	RecordBatch(events []core.Event) error
	// RecordBatchGated runs gate once the batch is validated and before
	// anything applies; a gate error applies nothing. A durable system
	// logs the batch in its gate.
	RecordBatchGated(events []core.Event, gate func() error) error
	// RestoreSnapshot installs one store's snapshot into the empty
	// store: a partition.Set routes every edge to its owner.
	RestoreSnapshot(snap *core.StoreSnapshot) error
	NumEvents() int
	Storage() core.StorageStats
	SetHistoryConfig(cfg core.HistoryConfig) error
	GetHistoryConfig() (core.HistoryConfig, bool)
	SealColdPrefixes() core.SealStats
	Memory() core.MemoryStats
}

// ClusterStore is the storage surface of a multi-process cluster
// router (implemented by cluster.RemoteSet): the full eventStore
// contract, executed by network scatter-gather over the cells, plus the
// outage accounting the query path uses to widen answers when cells are
// down. See NewClusterSystem and DESIGN.md §16.
type ClusterStore interface {
	eventStore
	// OutageEpoch returns the current outage epoch; captured before a
	// query evaluates and passed to WidenFor afterwards.
	OutageEpoch() uint64
	// WidenFor returns the sound widening for a query over the given
	// perimeter cut roads and region junctions that started at outage
	// epoch since: the interval [Count-width, Count+width] contains the
	// fault-free answer. unobservedCuts counts perimeter roads owned by
	// affected cells; affectedCells the affected owners.
	WidenFor(cuts []core.CutRoad, junctions []planar.NodeID, since uint64) (width float64, unobservedCuts, affectedCells int)
	// World returns the manifest-pinned world.
	World() *roadnet.World
	// Layout returns the pinned spatial layout.
	Layout() *partition.Layout
	// Close releases router-side resources (health loop, connections).
	Close() error
}

// servingState is the immutable snapshot of everything Query reads. A
// fresh value is published for every configuration change; the engine
// is never mutated after publication.
type servingState struct {
	engine          *query.Engine
	releaser        *privacy.CountReleaser
	perQueryEpsilon float64
}

// NewSystem wraps an existing world.
func NewSystem(w *roadnet.World) *System {
	store := core.NewStore(w)
	s := newSystem(w, store)
	s.store = store
	return s
}

// newSystem wires a storage backend into a System and publishes its
// first engine.
func newSystem(w *roadnet.World, st eventStore) *System {
	s := &System{
		world:        w,
		st:           st,
		planCacheCap: query.DefaultPlanCacheCapacity,
	}
	s.rebuild()
	return s
}

// NewPartitionedSystem wraps a world in a spatially partitioned
// multi-store system (DESIGN.md §14): the sensing graph is split into
// `partitions` spatial cells, each owning its roads’ tracking forms in
// a private core.Store; ingestion is routed by edge to the owning
// partition and rect queries are answered by scatter-gather, with every
// answer bit-identical to the equivalent single-store system.
// partitions ≤ 1 returns a plain single-store system. As on every
// System, the engine reads the live exact stores: ingestion never
// republishes.
func NewPartitionedSystem(w *roadnet.World, partitions int) (*System, error) {
	if partitions <= 1 {
		return NewSystem(w), nil
	}
	lay, err := partition.Build(w, partitions)
	if err != nil {
		return nil, err
	}
	s := newSystem(w, partition.NewSet(w, lay))
	s.lay = lay
	return s, nil
}

// NewClusterSystem wraps a cluster router store (cluster.Dial) in a
// System: the unmodified query engine runs in the router process with
// every storage read dispatched to the owning cell over the wire
// protocol, which is what makes cluster answers bit-identical to the
// single-process partitioned engine. Ingestion routes batches to the
// owning cells with partition.Set's two-phase all-or-nothing protocol;
// a query touching a dead or timed-out cell degrades into a sound
// widened [Lower, Upper] interval (Response.Degradation) instead of
// failing. DESIGN.md §16.
//
// Tiered history and durability are per-cell concerns and are not
// available on the router System. As on every System, the engine reads
// the live (remote) exact stores: ingestion never republishes.
func NewClusterSystem(cs ClusterStore) *System {
	s := newSystem(cs.World(), cs)
	s.lay = cs.Layout()
	s.outages = cs
	return s
}

// NumPartitions returns the number of store partitions (cells for
// cluster systems, 1 for single-store systems).
func (s *System) NumPartitions() int {
	if s.lay == nil {
		return 1
	}
	return s.lay.Cells
}

// PartitionLayout returns the spatial layout of a partitioned or
// cluster system, or nil for single-store systems.
func (s *System) PartitionLayout() *partition.Layout { return s.lay }

// NewGridCitySystem generates a jittered-grid city and wraps it.
func NewGridCitySystem(opts GridOpts, seed int64) (*System, error) {
	w, err := roadnet.GridCity(opts, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return NewSystem(w), nil
}

// NewRadialCitySystem generates a ring-and-spoke city and wraps it.
func NewRadialCitySystem(opts RadialOpts, seed int64) (*System, error) {
	w, err := roadnet.RadialCity(opts, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return NewSystem(w), nil
}

// NewRandomCitySystem generates a Delaunay-based city and wraps it.
func NewRandomCitySystem(opts RandomOpts, seed int64) (*System, error) {
	w, err := roadnet.RandomCity(opts, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return NewSystem(w), nil
}

// World exposes the underlying world for advanced use.
func (s *System) World() *roadnet.World { return s.world }

// Bounds returns the bounding rectangle of the city.
func (s *System) Bounds() Rect { return s.world.Bounds() }

// NumSensors returns the number of candidate sensor locations.
func (s *System) NumSensors() int { return s.world.NumSensors() }

// NumCommunicationSensors returns the number of active communication
// sensors after placement (0 before placement). Safe to call while
// PlaceSensors* / ClearPlacement run concurrently: the placement state
// is read under the configuration mutex, never as a torn pointer.
func (s *System) NumCommunicationSensors() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sg == nil {
		return 0
	}
	return s.sg.NumSensors()
}

// GenerateWorkload produces a synthetic moving-object workload over the
// system's city.
func (s *System) GenerateWorkload(opts MobilityOpts, seed int64) (*Workload, error) {
	return mobility.Generate(s.world, opts, rand.New(rand.NewSource(seed)))
}

// Ingest replays a workload into the tracking forms through RecordBatch
// — one lock-stripe acquisition set per chunk of events rather than one
// per event (mobility.Workload.Feed). Ingestion is invisible to the
// serving configuration: the engine reads the live store, so new events
// are answerable immediately and the engine — including its query-plan
// cache — survives untouched (ingestion alone never evicts a plan).
func (s *System) Ingest(wl *Workload) error { return wl.Feed(s) }

// RecordBatch ingests a time-ordered batch of crossing events under a
// single lock acquisition; it is the system's one ingest path. The batch
// is atomic: it is fully validated before anything is applied.
func (s *System) RecordBatch(events []Event) error {
	if s.Durable() {
		s.dmu.Lock()
		defer s.dmu.Unlock()
	}
	return s.recordLocked(0, events)
}

// recordSeq applies a sub-batch the cluster router numbered seq (cell
// mode, DESIGN.md §16.3) at most once. Under dmu it looks at the number
// before anything else: at or below the last number applied, the batch
// is already held and dup reports it, with nothing applied; otherwise
// check runs and then the batch applies as RecordBatch applies it,
// logged with its number on a durable system, and seq becomes the last
// number applied. Numbers may skip; they never go back.
func (s *System) recordSeq(seq uint64, events []Event, check func() error) (dup bool, err error) {
	s.dmu.Lock()
	if seq <= s.appliedSeq {
		s.dmu.Unlock()
		return true, nil
	}
	if err = check(); err == nil {
		err = s.recordLocked(seq, events)
	}
	s.dmu.Unlock()
	return false, err
}

// appliedNumber is the last router apply number the system applied.
func (s *System) appliedNumber() uint64 {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	return s.appliedSeq
}

// RecordMove ingests a single road crossing — the object traverses road
// starting from junction `from` at time t — as a batch of one.
func (s *System) RecordMove(road EdgeID, from NodeID, t float64) error {
	return s.RecordBatch([]Event{MoveEvent(road, from, t)})
}

// RecordEnter ingests a world entry at a gateway junction as a batch of
// one.
func (s *System) RecordEnter(gateway NodeID, t float64) error {
	return s.RecordBatch([]Event{EnterEvent(gateway, t)})
}

// RecordLeave ingests a world exit at a gateway junction as a batch of
// one.
func (s *System) RecordLeave(gateway NodeID, t float64) error {
	return s.RecordBatch([]Event{LeaveEvent(gateway, t)})
}

// SetIngestOrdering does nothing and returns nil. Ingestion checks time
// order per sensing-edge direction — the invariant the counting
// theorems' binary searches rest on — and nothing else, so concurrent
// RecordBatch callers may ingest independently clocked per-sensor
// streams.
//
// Deprecated: drop the call.
func (s *System) SetIngestOrdering(Ordering) error { return nil }

// SetPlanCacheCapacity sets the query-plan cache capacity of the serving
// engine (and of every engine rebuilt after configuration changes).
// n ≤ 0 disables plan caching. The default is
// query.DefaultPlanCacheCapacity.
func (s *System) SetPlanCacheCapacity(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	s.planCacheCap = n
	s.rebuild()
}

// PlanCacheStats reports the serving engine's query-plan cache counters.
// Counters restart at zero whenever a configuration change rebuilds the
// engine — that rebuild is exactly the epoch boundary that invalidates
// every compiled plan.
func (s *System) PlanCacheStats() PlanCacheStats {
	return s.serving.Load().engine.PlanCacheStats()
}

// ServingEpoch returns the number of serving-state publications since
// construction. It advances on every configuration change (placement,
// faults, privacy, plan-cache capacity) and never on ingestion, which
// leaves the serving epoch, and therefore the plan cache, untouched.
func (s *System) ServingEpoch() uint64 { return s.epoch.Load() }

// PlaceSensors selects `budget` communication sensors with a
// query-oblivious strategy and builds the sampled graph with Delaunay
// connectivity. Call PlaceSensorsConnect for k-NN wiring.
func (s *System) PlaceSensors(p Placement, budget int, seed int64) error {
	return s.PlaceSensorsConnect(p, budget, seed, sampled.Options{Connect: sampled.Triangulation})
}

// PlaceSensorsConnect is PlaceSensors with explicit connectivity options.
func (s *System) PlaceSensorsConnect(p Placement, budget int, seed int64, opts sampled.Options) error {
	smp, err := p.sampler()
	if err != nil {
		return err
	}
	cands := sampling.CandidatesFromDual(s.world.Dual.InteriorNodes(), s.world.Dual.G.Point)
	sel, err := smp.Sample(cands, budget, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	sg, err := sampled.Build(s.world, sel, opts)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sg = sg
	s.rebuild()
	return nil
}

// PlaceSensorsForQueries runs the query-adaptive submodular selection
// (§4.4) against a set of expected query rectangles.
func (s *System) PlaceSensorsForQueries(rects []Rect, budget int) error {
	var hist []*core.Region
	for _, rc := range rects {
		r, err := core.NewRegion(s.world, s.world.JunctionsIn(rc))
		if err != nil {
			return err
		}
		if !r.Empty() {
			hist = append(hist, r)
		}
	}
	res, err := submodular.SelectForQueries(s.world, hist, budget)
	if err != nil {
		return err
	}
	sg, err := sampled.BuildFromDualEdges(s.world, res.DualEdges)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sg = sg
	s.rebuild()
	return nil
}

// ClearPlacement reverts the system to the full (unsampled) sensing
// graph.
func (s *System) ClearPlacement() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sg = nil
	s.rebuild()
}

// rebuild constructs a fresh engine from the current configuration and
// publishes it atomically. The previous engine is never mutated, so
// queries loaded onto it finish undisturbed. Callers hold s.mu
// (NewSystem calls it before the System escapes its constructor).
func (s *System) rebuild() {
	var engine *query.Engine
	if s.sg != nil {
		engine = query.NewSampledEngine(s.sg, s.st)
	} else {
		engine = query.NewEngine(s.world, s.st)
	}
	engine.SetPlanCacheCapacity(s.planCacheCap)
	engine.SetFaultPlan(s.plan)
	sysRebuilds.Inc()
	s.publish(engine)
}

// publish stores a new serving snapshot pairing engine with the current
// privacy configuration. Callers hold s.mu.
func (s *System) publish(engine *query.Engine) {
	s.serving.Store(&servingState{
		engine:          engine,
		releaser:        s.releaser,
		perQueryEpsilon: s.perQueryEpsilon,
	})
	sysEpoch.Set(float64(s.epoch.Add(1)))
}

// ApplyFaults compiles a deterministic failure plan against the sensing
// graph and answers every subsequent query in degraded mode: dead
// perimeter sensors no longer fail the query — collection is rerouted
// through surviving sensors and the count is widened into the
// [Lower, Upper] interval of Response.Degradation, which always contains
// the fault-free count. Identical specs reproduce identical plans and
// identical degraded metrics.
//
// With a fault plan applied, concurrent queries stay memory-safe but
// consume the plan's deterministic drop stream in interleaving order;
// reproducible degraded metrics require queries issued one at a time.
// Re-applying a spec (even the same one) restarts the drop stream.
func (s *System) ApplyFaults(spec FaultSpec) error {
	d := s.world.Dual.G
	plan, err := faults.Compile(spec, d.NumNodes(), d.NumEdges(), s.world.Dual.OuterNode)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan = plan
	s.rebuild()
	return nil
}

// ClearFaults removes the failure plan; queries answer exactly again.
func (s *System) ClearFaults() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan = nil
	s.rebuild()
}

// NumFailedSensors returns the number of sensors down at time t under
// the applied fault plan (0 without a plan).
func (s *System) NumFailedSensors(t float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan == nil {
		return 0
	}
	return s.plan.DeadNodesAt(t)
}

// EnablePrivacy turns on ε-differentially private count releases: every
// subsequent Query perturbs its count with two-sided geometric noise at
// perQueryEpsilon, so a count is released as an integer, and draws from
// a total budget of totalEpsilon; queries beyond the budget fail. Pass totalEpsilon ≤ 0 to disable. A NaN or
// infinite value in either argument is refused before anything changes.
//
// Re-enabling while an accountant is live is an error: silently
// replacing it would re-arm an exhausted budget with a fresh one,
// voiding the sequential-composition guarantee the total ε stands for.
// To deliberately start a new budget, disable first
// (EnablePrivacy(0, 0, 0)) — an explicit, auditable reset.
func (s *System) EnablePrivacy(totalEpsilon, perQueryEpsilon float64, seed int64) error {
	for _, eps := range [...]float64{totalEpsilon, perQueryEpsilon} {
		if math.IsNaN(eps) || math.IsInf(eps, 0) {
			return fmt.Errorf("stq: privacy epsilons must be finite, got total %v per query %v", totalEpsilon, perQueryEpsilon)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if totalEpsilon <= 0 {
		s.releaser = nil
		s.acct = nil
		s.perQueryEpsilon = 0
		s.publish(s.serving.Load().engine)
		return nil
	}
	if s.acct != nil {
		return fmt.Errorf("stq: privacy already enabled with %.4g of %.4g ε spent; disable first (EnablePrivacy(0, 0, 0)) to start a new budget",
			s.acct.Spent(), s.acct.Spent()+s.acct.Remaining())
	}
	if perQueryEpsilon <= 0 || perQueryEpsilon > totalEpsilon {
		return fmt.Errorf("stq: per-query epsilon %v out of (0, %v]", perQueryEpsilon, totalEpsilon)
	}
	acct, err := privacy.NewAccountant(totalEpsilon)
	if err != nil {
		return err
	}
	s.acct = acct
	s.perQueryEpsilon = perQueryEpsilon
	s.releaser = privacy.NewCountReleaser(acct, seed)
	s.publish(s.serving.Load().engine)
	return nil
}

// PrivacyBudgetRemaining returns the unspent ε, or +Inf when privacy is
// disabled.
func (s *System) PrivacyBudgetRemaining() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.acct == nil {
		return math.Inf(1)
	}
	return s.acct.Remaining()
}

// Query answers one spatiotemporal range count query.
func (s *System) Query(q Query) (*Response, error) {
	// One atomic load pins the entire query-path configuration: engine,
	// releaser, and per-query ε stay mutually consistent even while a
	// concurrent PlaceSensors / ApplyFaults / EnablePrivacy republishes.
	sv := s.serving.Load()
	tr := obs.Default.StartTrace(q.Kind.String())
	defer tr.Finish()
	sysQueries.Inc()
	// On cluster systems, pin the outage epoch before evaluating: any
	// cell death or recovery at or after this point may have cost the
	// query some boundary terms, and widenForOutages accounts for it
	// afterwards.
	var outageSince uint64
	if s.outages != nil {
		outageSince = s.outages.OutageEpoch()
	}
	resp, err := sv.engine.Query(query.Request{
		Rect: q.Rect, T1: q.T1, T2: q.T2, Kind: q.Kind, Bound: q.Bound, Trace: tr,
	})
	if err != nil {
		return nil, err
	}
	if s.outages != nil && !resp.Missed {
		s.widenForOutages(resp, outageSince)
	}
	if resp.Missed {
		sysMisses.Inc()
	}
	if resp.Degradation != nil {
		sysDegraded.Inc()
	}
	if sv.releaser != nil && !resp.Missed {
		tr.Begin(obs.PhasePrivacy)
		noisy, err := sv.releaser.Release(resp.Count, sv.perQueryEpsilon)
		tr.End(obs.PhasePrivacy)
		if err != nil {
			sysPrivateDenied.Inc()
			return nil, err
		}
		sysPrivateOK.Inc()
		sysEpsSpent.Add(sv.perQueryEpsilon)
		if resp.Degradation != nil {
			// The engine's degraded bounds are centered on the raw count
			// (count ± W); releasing them beside the noised count would
			// hand back the exact count as (Lower+Upper)/2. Keep the
			// width — it depends only on the unobserved crossing volume,
			// not on the released count — and recenter it on the noised
			// value, the only count this response discloses.
			deg := *resp.Degradation
			half := (deg.Upper - deg.Lower) / 2
			deg.Lower, deg.Upper = noisy-half, noisy+half
			resp.Degradation = &deg
		}
		resp.Count = noisy
	}
	return &Response{
		Count:         resp.Count,
		Missed:        resp.Missed,
		RegionFaces:   resp.Region.Size(),
		NodesAccessed: resp.Net.NodesAccessed,
		Messages:      resp.Net.Messages,
		Hops:          resp.Net.Hops,
		TotalHops:     resp.Net.TotalHops,
		EdgesAccessed: resp.EdgesAccessed,
		Degradation:   resp.Degradation,
	}, nil
}

// widenForOutages folds cluster cell outages into the response's
// degradation report: every affected cell owning part of the region's
// perimeter (or any of its junctions — a dead cell's world-junction
// view may be stale, so any junction it owns could hide a gateway)
// widens the [Lower, Upper] interval by its last-known event count,
// which bounds how far any boundary term can be off. A cell that never
// handshaked widens to the full float range (kept finite so the
// response serializes). Runs before the privacy recentering, which
// preserves only the interval's width.
func (s *System) widenForOutages(resp *query.Response, since uint64) {
	if resp.Region == nil {
		return
	}
	width, cuts, cells := s.outages.WidenFor(resp.Region.CutRoads(), resp.Region.Junctions(), since)
	if cells == 0 {
		return
	}
	deg := Degradation{Lower: resp.Count, Upper: resp.Count}
	if resp.Degradation != nil {
		deg = *resp.Degradation
	}
	deg.Lower -= width
	deg.Upper += width
	if deg.Lower < -math.MaxFloat64 {
		deg.Lower = -math.MaxFloat64
	}
	if deg.Upper > math.MaxFloat64 {
		deg.Upper = math.MaxFloat64
	}
	deg.UnobservedCuts += cuts
	deg.FailedNodes += cells
	resp.Degradation = &deg
}

// StorageBytes reports the tracking forms' raw timestamp bytes.
func (s *System) StorageBytes() int { return s.st.Storage().Bytes }

// Snapshot returns a point-in-time copy of the observability registry:
// every counter, gauge, histogram, and the slow-query log. Values are
// only recorded while EnableObservability is on; the snapshot is cheap
// and safe to take while queries are being served.
func (s *System) Snapshot() ObsSnapshot { return obs.Default.Snapshot() }

// Gateways returns the world-boundary junctions through which objects
// enter and leave.
func (s *System) Gateways() []NodeID { return s.world.Gateways }
