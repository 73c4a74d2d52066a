package core

import (
	"fmt"
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
	// Gateway is the world junction of an Enter/Leave.
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

// batchScratch is the reusable working set of one RecordBatch call,
// pooled so steady-state ingestion allocates only the tracking forms it
// republishes. The per-road tables are flat slices indexed by EdgeID —
// a batch of n events costs two array lookups per event instead of two
// map probes — and are reset sparsely via the touched-road list, so
// reuse is O(roads touched), not O(roads in the world).
type batchScratch struct {
	// adds counts appends per road: [fwd, rev], indexed by EdgeID.
	adds [][2]int32
	// clones holds each touched road's private working clone, indexed by
	// EdgeID.
	clones []*Tracker
	// roads lists the distinct touched roads in first-touch order.
	roads []planar.EdgeID
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// reset sparsely clears the per-road tables (only the entries this
// batch touched) and grows them when the store has more roads than the
// pooled scratch has seen.
func (sc *batchScratch) reset(nRoads int) {
	for _, r := range sc.roads {
		sc.adds[r] = [2]int32{}
		sc.clones[r] = nil
	}
	sc.roads = sc.roads[:0]
	if len(sc.adds) < nRoads {
		sc.adds = make([][2]int32, nRoads)
		sc.clones = make([]*Tracker, nRoads)
	}
}

// RecordBatch ingests a batch of events; it is the store's one ingest
// path (RecordMove / RecordEnter / RecordLeave are batches of one).
// Only the lock stripes of the edges the batch touches are held, so
// concurrent batches over disjoint stripes apply in parallel.
//
// The batch is atomic: every event is validated (kind, road range,
// endpoint membership, time ordering per the store's Ordering — under
// OrderGlobal against both the store clock and earlier events of the
// batch) before anything is published, so a failed call leaves the
// store observably unchanged.
func (s *Store) RecordBatch(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	sc := batchPool.Get().(*batchScratch)
	sc.reset(len(s.roads))
	defer batchPool.Put(sc)

	// Pass 1 (lock-free): structural validation, global-order validation
	// when configured, touched-stripe mask, per-road append counts.
	global := s.GetOrdering() == OrderGlobal
	clock := s.Clock()
	maxT := events[0].T
	var mask uint32
	for i, ev := range events {
		if global {
			if ev.T < clock {
				return fmt.Errorf("core: batch event %d at %v precedes time %v (events must be time ordered)", i, ev.T, clock)
			}
			clock = ev.T
		}
		if ev.T > maxT {
			maxT = ev.T
		}
		switch ev.Kind {
		case EventMove:
			if ev.Road < 0 || int(ev.Road) >= len(s.roads) {
				return fmt.Errorf("core: batch event %d: road %d out of range", i, ev.Road)
			}
			e := s.w.Star.Edge(ev.Road)
			if ev.From != e.U && ev.From != e.V {
				return fmt.Errorf("core: batch event %d: node %d is not an endpoint of road %d", i, ev.From, ev.Road)
			}
			c := &sc.adds[ev.Road]
			if c[0] == 0 && c[1] == 0 {
				sc.roads = append(sc.roads, ev.Road)
			}
			if ev.From == e.U {
				c[0]++
			} else {
				c[1]++
			}
			mask |= 1 << shardOfRoad(ev.Road)
		case EventEnter, EventLeave:
			// Any junction may carry world edges (map-matched real traces
			// appear and vanish anywhere).
			mask |= 1 << shardOfNode(ev.Gateway)
		default:
			return fmt.Errorf("core: batch event %d: unknown kind %d", i, ev.Kind)
		}
	}

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
	// pass-1 counts, so a batch republishing k roads costs O(1) + at
	// most one timestamp-array growth per saturated direction. Clones
	// stay private until publication, so a per-edge order violation
	// discovered here still aborts with the store unchanged.
	arena := make([]Tracker, 0, len(sc.roads))
	var worldNext [numShards]*worldView
	newGateway := false
	for i, ev := range events {
		switch ev.Kind {
		case EventMove:
			tr := sc.clones[ev.Road]
			if tr == nil {
				var next Tracker
				if old := s.roads[ev.Road].Load(); old != nil {
					next = *old
				}
				c := sc.adds[ev.Road]
				next.fwd = growFor(next.fwd, int(c[0]))
				next.rev = growFor(next.rev, int(c[1]))
				arena = append(arena, next)
				tr = &arena[len(arena)-1]
				sc.clones[ev.Road] = tr
			}
			fwd := ev.From == s.w.Star.Edge(ev.Road).U
			if last, ok := tr.last(fwd); ok && ev.T < last {
				unlock()
				return fmt.Errorf("core: batch event %d at %v precedes last crossing %v on road %d (per-edge order)", i, ev.T, last, ev.Road)
			}
			tr.Record(fwd, ev.T)
		case EventEnter, EventLeave:
			si := shardOfNode(ev.Gateway)
			wv := worldNext[si]
			if wv == nil {
				cur := s.shards[si].world.Load()
				wv = &worldView{in: cloneWorldMap(cur.in), out: cloneWorldMap(cur.out)}
				worldNext[si] = wv
			}
			side := wv.in
			if ev.Kind == EventLeave {
				side = wv.out
			}
			if ts := side[ev.Gateway]; len(ts) > 0 && ev.T < ts[len(ts)-1] {
				unlock()
				return fmt.Errorf("core: batch event %d at %v precedes last world event %v at gateway %d (per-edge order)", i, ev.T, ts[len(ts)-1], ev.Gateway)
			}
			if len(wv.in[ev.Gateway]) == 0 && len(wv.out[ev.Gateway]) == 0 {
				newGateway = true
			}
			side[ev.Gateway] = append(side[ev.Gateway], ev.T)
		}
	}

	// Publish: every touched road and stripe view, then release stripes.
	for _, road := range sc.roads {
		s.roads[road].Store(sc.clones[road])
	}
	for i := range worldNext {
		if worldNext[i] != nil {
			s.shards[i].world.Store(worldNext[i])
		}
	}
	unlock()
	if newGateway {
		s.gatewayGen.Add(1)
	}
	s.commit(maxT, len(events))
	return nil
}

// dirKey identifies one tracking-form direction during ValidateBatch.
type dirKey struct {
	road planar.EdgeID
	fwd  bool
}

// worldKey identifies one world-edge direction during ValidateBatch.
type worldKey struct {
	g        planar.NodeID
	entering bool
}

// ValidateBatch checks that events are per-form monotone against the
// store's current state, without applying anything — phase 1 of the
// two-phase ingest of a batch that spans several stores, whose router
// holds writers off between this call and the RecordBatch that follows.
// The events must already be structurally valid (known kind, road in
// range); the router checks that while it finds each event's owner.
func (s *Store) ValidateBatch(events []Event) error {
	var lastRoad map[dirKey]float64
	var lastWorld map[worldKey]float64
	for _, ev := range events {
		switch ev.Kind {
		case EventMove:
			e := s.w.Star.Edge(ev.Road)
			fwd := ev.From == e.U
			k := dirKey{ev.Road, fwd}
			if lastRoad == nil {
				lastRoad = make(map[dirKey]float64, len(events))
			}
			last, ok := lastRoad[k]
			if !ok {
				toward := e.V
				if !fwd {
					toward = e.U
				}
				last, ok = s.LastRoadCrossing(ev.Road, toward)
			}
			if ok && ev.T < last {
				return fmt.Errorf("core: batch event at %v precedes last crossing %v on road %d (per-edge order)", ev.T, last, ev.Road)
			}
			lastRoad[k] = ev.T
		case EventEnter, EventLeave:
			k := worldKey{ev.Gateway, ev.Kind == EventEnter}
			if lastWorld == nil {
				lastWorld = make(map[worldKey]float64, 8)
			}
			last, ok := lastWorld[k]
			if !ok {
				last, ok = s.LastWorldEvent(ev.Gateway, k.entering)
			}
			if ok && ev.T < last {
				return fmt.Errorf("core: batch event at %v precedes last world event %v at gateway %d (per-edge order)", ev.T, last, ev.Gateway)
			}
			lastWorld[k] = ev.T
		}
	}
	return nil
}

// Ready reports whether the store can take a write now: an in-memory
// store always can. It is the health half of the per-shard surface a
// sharded set drives (partition.Member); a network-backed shard answers
// with why it cannot.
func (s *Store) Ready() error { return nil }
