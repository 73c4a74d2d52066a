package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/planar"
)

// EventKind distinguishes the three store-ingestible crossing kinds.
type EventKind uint8

// Batch event kinds.
const (
	// EventEnter is a world-entry at a gateway (from ★v_ext).
	EventEnter EventKind = iota
	// EventMove is a road traversal between two junctions.
	EventMove
	// EventLeave is a world-exit at a gateway (to ★v_ext).
	EventLeave
)

// Event is one identifier-free crossing event for batch ingestion.
// Move events set Road and From; Enter/Leave events set Gateway.
type Event struct {
	T    float64
	Kind EventKind
	// Road and From describe a Move: the object traverses Road starting
	// at junction From, crossing the dual sensing edge at time T.
	Road planar.EdgeID
	From planar.NodeID
	// Gateway is the gateway junction of an Enter/Leave.
	Gateway planar.NodeID
}

// MoveEvent builds a Move batch event.
func MoveEvent(road planar.EdgeID, from planar.NodeID, t float64) Event {
	return Event{T: t, Kind: EventMove, Road: road, From: from}
}

// EnterEvent builds a world-entry batch event.
func EnterEvent(gateway planar.NodeID, t float64) Event {
	return Event{T: t, Kind: EventEnter, Gateway: gateway}
}

// LeaveEvent builds a world-exit batch event.
func LeaveEvent(gateway planar.NodeID, t float64) Event {
	return Event{T: t, Kind: EventLeave, Gateway: gateway}
}

// batchScratch is the reusable working set of one RecordBatch or
// ValidateBatch call, pooled so steady-state ingestion allocates only
// the tracking forms it republishes. The per-edge tables are flat slices
// indexed by EdgeID — a batch of n events costs two array lookups per
// event instead of two map probes — and are reset sparsely via the
// touched-edge list, so reuse is O(edges touched), not O(edges in the
// world).
type batchScratch struct {
	// adds counts appends per tracked edge: [fwd, rev], indexed by EdgeID.
	adds [][2]int32
	// lasts holds each touched direction's newest timestamp, indexed by
	// EdgeID: the published form's as touch read it (−Inf for an empty
	// direction); in ValidateBatch, then the newest of the batch so far.
	lasts [][2]float64
	// clones holds each touched edge's private working clone, indexed by
	// EdgeID.
	clones []*Tracker
	// roads lists the distinct touched edges in first-touch order.
	roads []planar.EdgeID
	// forms[i] is the tracking form event i appends to, resolved once in
	// the routing pass.
	forms []dirKey
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// reset sparsely clears the per-edge tables (only the entries this
// batch touched; lasts is written before it is read) and grows them
// when the store has more edges than the pooled scratch has seen.
func (sc *batchScratch) reset(nEdges int) {
	for _, r := range sc.roads {
		sc.adds[r] = [2]int32{}
		sc.clones[r] = nil
	}
	sc.roads, sc.forms = sc.roads[:0], sc.forms[:0]
	if len(sc.adds) < nEdges {
		sc.adds = make([][2]int32, nEdges)
		sc.lasts = make([][2]float64, nEdges)
		sc.clones = make([]*Tracker, nEdges)
	}
}

// dirIndex is a direction's index into the per-edge pairs.
func dirIndex(fwd bool) int {
	if fwd {
		return 0
	}
	return 1
}

// route is the routing pass (pass 1) of every write and of
// ValidateBatch, and takes no lock. It resolves each event to its
// tracking form (sc.forms), counts the appends per direction, lists the
// touched edges, and returns the touched-stripe mask and the batch's
// newest timestamp.
func (s *Store) route(events []Event, sc *batchScratch) (mask uint32, maxT float64, err error) {
	maxT = events[0].T
	for i := range events {
		ev := &events[i]
		edge, fwd, err := s.form(i, ev)
		if err != nil {
			return 0, 0, err
		}
		if ev.T > maxT {
			maxT = ev.T
		}
		sc.forms = append(sc.forms, dirKey{edge, fwd})
		c := &sc.adds[edge]
		if c[0] == 0 && c[1] == 0 {
			sc.roads = append(sc.roads, edge)
		}
		if fwd {
			c[0]++
		} else {
			c[1]++
		}
		mask |= 1 << shardOfRoad(edge)
	}
	return mask, maxT, nil
}

// touchAhead bounds the events whose forms a write touches before it
// locks them: all of a batch that short, the size of the harness's and
// the load generator's requests. Touching the rest of a longer batch as
// well, all up front or a window at a time inside pass 2, gained
// nothing consistent on 8,192- and 65,536-event batches and was slower
// on some rows (BenchmarkIngest/live, BenchmarkConcurrentRecordBatch).
const touchAhead = 64

// touch reads the newest published timestamp of each form in forms into
// its edge's last (−Inf for an empty direction). Each form costs two
// dependent cache misses, the published tracker and then its tail; this
// loop is short, so the misses of different forms overlap in the
// processor's out-of-order window, where pass 2 would pay them one
// event at a time. Reading a published form without its stripe lock is
// race-free by the aliasing rule (DESIGN.md §10.2): appends land beyond
// a published len. A value read before the locks may be stale once they
// are held, so pass 2 never reads last: it checks order against the
// tracker it loads under them, and for a write the loads themselves are
// the point. Only ValidateBatch, lock-free by contract, checks against
// last.
func (s *Store) touch(sc *batchScratch, forms []dirKey) {
	for _, f := range forms {
		last := math.Inf(-1)
		if tr := s.roads[f.edge].Load(); tr != nil {
			if t, ok := tr.last(f.fwd); ok {
				last = t
			}
		}
		sc.lasts[f.edge][dirIndex(f.fwd)] = last
	}
}

// form resolves event i of a batch to the tracking form it appends to:
// the tracked edge and the direction. A Move crosses its road away from
// From; an Enter crosses its gateway's world edge forward (★v_ext →
// junction), a Leave in reverse. This is where a Move is held to the
// roads, an Enter or Leave to the gateways, every id to its range and
// every timestamp to a finite value, before anything is indexed or
// ordered by it.
func (s *Store) form(i int, ev *Event) (edge planar.EdgeID, fwd bool, err error) {
	if math.IsNaN(ev.T) || math.IsInf(ev.T, 0) {
		return 0, false, fmt.Errorf("core: batch event %d: timestamp %v is not finite", i, ev.T)
	}
	switch ev.Kind {
	case EventMove:
		if ev.Road < 0 || int(ev.Road) >= s.w.NumRoads() {
			return 0, false, fmt.Errorf("core: batch event %d: road %d out of range", i, ev.Road)
		}
		u, v := s.w.TrackedEnds(ev.Road)
		if ev.From != u && ev.From != v {
			return 0, false, fmt.Errorf("core: batch event %d: node %d is not an endpoint of road %d", i, ev.From, ev.Road)
		}
		return ev.Road, ev.From == u, nil
	case EventEnter, EventLeave:
		if ev.Gateway < 0 || int(ev.Gateway) >= s.w.NumJunctions() {
			return 0, false, fmt.Errorf("core: batch event %d: gateway %d out of range", i, ev.Gateway)
		}
		if !s.w.IsGateway(ev.Gateway) {
			return 0, false, fmt.Errorf("core: batch event %d: junction %d is not a gateway", i, ev.Gateway)
		}
		return s.w.WorldEdge(ev.Gateway), ev.Kind == EventEnter, nil
	}
	return 0, false, fmt.Errorf("core: batch event %d: unknown kind %d", i, ev.Kind)
}

// edgeName names a tracked edge the way its events do, for errors.
func (s *Store) edgeName(edge planar.EdgeID) string {
	if tail, head := s.w.TrackedEnds(edge); tail == s.w.Ext() {
		return fmt.Sprintf("the world edge of gateway %d", head)
	}
	return fmt.Sprintf("road %d", edge)
}

// RecordBatch ingests a batch of events; it is the store's one ingest
// path (RecordMove / RecordEnter / RecordLeave are batches of one).
// Only the lock stripes of the edges the batch touches are held, so
// concurrent batches over disjoint stripes apply in parallel.
//
// The batch is atomic: every event is validated (kind, id ranges,
// endpoint membership, time order per tracking-form direction, against
// the store and against earlier events of the batch) before anything is
// published, so a failed call leaves the store observably unchanged.
func (s *Store) RecordBatch(events []Event) error {
	return s.RecordBatchGated(events, nil)
}

// RecordBatchGated is RecordBatch with a gate: once the batch is
// validated and before anything is published, gate (when not nil) runs
// under the batch's stripe locks, and its error refuses the batch with
// the store unchanged. A durable system logs the batch there, so it
// validates once and applies only what the log took.
func (s *Store) RecordBatchGated(events []Event, gate func() error) error {
	if len(events) == 0 {
		return nil
	}
	sc := batchPool.Get().(*batchScratch)
	sc.reset(len(s.roads))
	defer batchPool.Put(sc)

	// Pass 1 (lock-free): structural validation, touched-stripe mask,
	// per-direction append counts; then the touch of the forms the first
	// touchAhead events append to, still without locks.
	mask, maxT, err := s.route(events, sc)
	if err != nil {
		return err
	}
	s.touch(sc, sc.forms[:min(len(sc.forms), touchAhead)])

	// Lock every touched stripe in ascending index order (deadlock-free
	// against concurrent batches locking overlapping stripe sets).
	for i := 0; i < numShards; i++ {
		if mask&(1<<i) != 0 {
			s.shards[i].lock()
		}
	}
	unlock := func() {
		for i := 0; i < numShards; i++ {
			if mask&(1<<i) != 0 {
				s.shards[i].mu.Unlock()
			}
		}
	}

	// Pass 2 (under stripe locks): apply into private clones. Tracker
	// clones live in one arena allocation and are presized from the
	// pass-1 counts, so a batch republishing k edges costs O(1) + at
	// most one timestamp-array growth per saturated direction. Clones
	// stay private until publication, so a per-edge order violation
	// discovered here still aborts with the store unchanged.
	arena := make([]Tracker, 0, len(sc.roads))
	for i, f := range sc.forms {
		edge, fwd, t := f.edge, f.fwd, events[i].T
		tr := sc.clones[edge]
		if tr == nil {
			var next Tracker
			if old := s.roads[edge].Load(); old != nil {
				next = *old
			}
			c := sc.adds[edge]
			next.fwd = growFor(next.fwd, int(c[0]))
			next.rev = growFor(next.rev, int(c[1]))
			arena = append(arena, next)
			tr = &arena[len(arena)-1]
			sc.clones[edge] = tr
		}
		if last, ok := tr.last(fwd); ok && t < last {
			unlock()
			return s.orderError(i, t, last, edge)
		}
		tr.Record(fwd, t)
	}
	if gate != nil {
		if err := gate(); err != nil {
			unlock()
			return err
		}
	}

	// Publish every touched edge and release the stripes.
	for _, edge := range sc.roads {
		s.roads[edge].Store(sc.clones[edge])
	}
	unlock()
	s.commit(maxT, len(events))
	return nil
}

// dirKey identifies one tracking-form direction: a tracked edge and
// which way it is crossed.
type dirKey struct {
	edge planar.EdgeID
	fwd  bool
}

// ValidateBatch checks that events are structurally valid and per-form
// monotone against the store's current state, without applying anything
// — phase 1 of the two-phase ingest of a batch that spans several
// stores, whose router holds writers off between this call and the
// RecordBatch that follows. It runs RecordBatch's routing pass and then
// checks time order in event order, so a batch both refuse is refused
// in the same words.
func (s *Store) ValidateBatch(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	sc := batchPool.Get().(*batchScratch)
	sc.reset(len(s.roads))
	defer batchPool.Put(sc)
	if _, _, err := s.route(events, sc); err != nil {
		return err
	}
	s.touch(sc, sc.forms)
	for i, f := range sc.forms {
		last, t := &sc.lasts[f.edge][dirIndex(f.fwd)], events[i].T
		if t < *last {
			return s.orderError(i, t, *last, f.edge)
		}
		*last = t
	}
	return nil
}

// orderError refuses event i at t, which precedes last on edge.
func (s *Store) orderError(i int, t, last float64, edge planar.EdgeID) error {
	return fmt.Errorf("core: batch event %d at %v precedes last crossing %v on %s (per-edge order)", i, t, last, s.edgeName(edge))
}
