package core

import (
	"math"
	"sync/atomic"

	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Tracker is the pair of tracking forms (γ⁺, γ⁻) of one sensing edge:
// crossing timestamps per direction over the dual road, kept in
// non-decreasing order. The zero value is an empty tracker ready to use.
//
// The forms are tiered (DESIGN.md §12): recent timestamps live in one
// mutable hot slice a direction, while the sealed cold prefixes — when
// the store's tiered history is enabled — live in one immutable run
// holding both directions in time order, shared structurally across
// tracker snapshots. Per direction every sealed timestamp precedes (≤)
// every hot one, so counts compose by addition; across directions the
// run and the hot tails may interleave.
type Tracker struct {
	// fwd holds hot crossings in the road's U→V direction, rev in V→U.
	fwd, rev []float64
	// sealed is the immutable sealed run; nil until the first seal.
	sealed *run
}

// hot returns the hot-tier slice of one direction.
func (tr *Tracker) hot(forward bool) []float64 {
	if forward {
		return tr.fwd
	}
	return tr.rev
}

// Record appends a crossing at time t in the given direction. Timestamps
// must be appended in non-decreasing order per direction; Store enforces
// ordering for all trackers.
func (tr *Tracker) Record(forward bool, t float64) {
	if forward {
		tr.fwd = append(tr.fwd, t)
	} else {
		tr.rev = append(tr.rev, t)
	}
}

// Count returns the number of crossings in the given direction up to and
// including t — the paper's C(γ, t): sealed-tier count (one descent of
// the run, split by direction) plus hot-tier count (0 before the tail,
// else a binary search).
func (tr *Tracker) Count(forward bool, t float64) int {
	return tr.sealed.countDir(forward, t) + countLE(tr.hot(forward), t)
}

// net returns Count(forward, t) − Count(!forward, t), a perimeter term
// of the boundary integral, from one descent of the sealed run: its rank
// p at t and the forward count f among those p make the sealed net
// 2f − p.
func (tr *Tracker) net(forward bool, t float64) int {
	p := tr.sealed.countLE(t)
	n := 2*tr.sealed.fwdRank(p) - p + countLE(tr.fwd, t) - countLE(tr.rev, t)
	if !forward {
		return -n
	}
	return n
}

// netIn returns net(forward, t2) − net(forward, t1), a perimeter term of
// the interval integral over (t1, t2], from one descent of the sealed
// run for both bounds (run.countPair) and one per hot tail (countIn).
func (tr *Tracker) netIn(forward bool, t1, t2 float64) int {
	p1, p2 := tr.sealed.countPair(t1, t2)
	f := tr.sealed.fwdRank(p2) - tr.sealed.fwdRank(p1)
	n := 2*f - (p2 - p1) + countIn(tr.fwd, t1, t2) - countIn(tr.rev, t1, t2)
	if !forward {
		return -n
	}
	return n
}

// Events returns one direction's full timestamp sequence — the sealed
// prefix materialized (decoded) followed by the hot tail. The returned
// slice is a fresh copy owned by the caller: it never aliases store
// internals, so mutating it cannot corrupt the store and later
// ingestion is never observable through it.
func (tr *Tracker) Events(forward bool) []float64 {
	hot, ns := tr.hot(forward), tr.sealed.dirLen(forward)
	if ns == 0 && len(hot) == 0 {
		return nil
	}
	out := tr.sealed.appendDir(forward, make([]float64, 0, ns+len(hot)))
	return append(out, hot...)
}

// Len returns the total number of stored crossings across both tiers.
func (tr *Tracker) Len() int {
	return len(tr.fwd) + len(tr.rev) + tr.sealed.len()
}

// SealedLen returns the number of sealed (warm-tier) crossings of one
// direction.
func (tr *Tracker) SealedLen(forward bool) int { return tr.sealed.dirLen(forward) }

// last returns the most recent timestamp of one direction; ok is false
// for an empty direction.
func (tr *Tracker) last(forward bool) (t float64, ok bool) {
	if ts := tr.hot(forward); len(ts) > 0 {
		return ts[len(ts)-1], true
	}
	if tr.sealed.dirLen(forward) == 0 {
		return 0, false
	}
	return tr.sealed.dirLast[dirIndex(forward)], true
}

// countLE returns the number of elements of sorted ts that are ≤ t: 0 at
// once for a t before the first, else a binary search for the first
// element past t. NaN compares false everywhere, so every element counts
// as ≤ NaN.
func countLE(ts []float64, t float64) int {
	if len(ts) == 0 || t < ts[0] {
		return 0
	}
	lo, hi := 1, len(ts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ts[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// countIn returns countLE(ts, t2) − countLE(ts, t1), the elements in
// (t1, t2], searching for t2 only past t1's count. An inverted or NaN
// pair may not fuse (its difference can be negative), so it takes the
// two counts.
func countIn(ts []float64, t1, t2 float64) int {
	if !(t1 <= t2) {
		return countLE(ts, t2) - countLE(ts, t1)
	}
	return countLE(ts[countLE(ts, t1):], t2)
}

// Store is the exact (non-learned) tracking-form store of a world: one
// Tracker per tracked edge of the closed graph — every road, and every
// junction's world edge to ★v_ext (forward = enter, reverse = leave;
// roadnet.World.WorldEdge). It is the reference Counter and StepLister
// implementation: a whole perimeter integral runs in one pass with no
// lock acquisitions.
//
// # Concurrency
//
// The store is sharded: writers serialize on numShards lock stripes
// keyed by edge ID, so ingestion streams touching disjoint stripes run
// in parallel. Reads are lock-free: every edge's tracking form is
// published as an immutable snapshot behind an atomic pointer; a reader
// sees, per edge, an atomically consistent (γ⁺, γ⁻) pair as of the
// snapshot it loads. A query concurrent with ingestion may observe different roads
// at slightly different ingestion frontiers (per-snapshot consistency,
// not a global cut); once ingestion quiesces — or for any probe time at
// or before the already-ingested horizon — counts are exact. Writes
// that return have been published: a subsequent query on any goroutine
// sees them.
//
// Time order is checked per tracking-form direction and nothing else:
// an append that would break a form's sort order is rejected, never
// applied, while independent edges may ingest at independent clocks
// (DESIGN.md §10.1).
type Store struct {
	w *roadnet.World
	// roads[e] is the atomically published tracking form of tracked
	// edge e — the roads, then the world edges; nil until the edge's
	// first event.
	roads  []atomic.Pointer[Tracker]
	shards [numShards]shard
	// clockBits is math.Float64bits of the max ingested timestamp.
	clockBits atomic.Uint64
	events    atomic.Int64
	// histCfg is the tiered-history configuration (SetHistoryConfig);
	// nil disables sealing.
	histCfg atomic.Pointer[HistoryConfig]
}

// NewStore returns an empty store over w.
func NewStore(w *roadnet.World) *Store {
	return &Store{
		w:     w,
		roads: make([]atomic.Pointer[Tracker], w.NumTrackedEdges()),
	}
}

// SetOrdering does nothing: OrderPerEdge is the store's only contract.
//
// Deprecated: drop the call.
func (s *Store) SetOrdering(Ordering) {}

// World returns the world the store tracks.
func (s *Store) World() *roadnet.World { return s.w }

// NumEvents returns the total number of ingested crossing events.
func (s *Store) NumEvents() int { return int(s.events.Load()) }

// Clock returns the timestamp of the most recent event.
func (s *Store) Clock() float64 { return math.Float64frombits(s.clockBits.Load()) }

// RecordMove ingests a crossing of road from endpoint `from` toward the
// other endpoint at time t: a batch of one.
func (s *Store) RecordMove(road planar.EdgeID, from planar.NodeID, t float64) error {
	return s.RecordBatch([]Event{MoveEvent(road, from, t)})
}

// RecordEnter ingests a world-entry at gateway g at time t (an object
// appearing from ★v_ext): a batch of one.
func (s *Store) RecordEnter(g planar.NodeID, t float64) error {
	return s.RecordBatch([]Event{EnterEvent(g, t)})
}

// RecordLeave ingests a world-exit at gateway g at time t: a batch of
// one.
func (s *Store) RecordLeave(g planar.NodeID, t float64) error {
	return s.RecordBatch([]Event{LeaveEvent(g, t)})
}

// forward reports whether a crossing of edge toward node n runs in the
// edge's forward direction.
func (s *Store) forward(edge planar.EdgeID, n planar.NodeID) bool {
	_, head := s.w.TrackedEnds(edge)
	return n == head
}

// RoadCrossings implements Counter.
func (s *Store) RoadCrossings(edge planar.EdgeID, toward planar.NodeID, t float64) float64 {
	tr := s.loadTracker(edge)
	if tr == nil {
		return 0
	}
	return float64(tr.Count(s.forward(edge, toward), t))
}

// RoadTracker returns a snapshot of the tracker of one tracked edge for
// storage accounting and for training learned models.
//
// The snapshot is the atomically published tracking form: both
// directions are captured together, and concurrent ingestion republishes
// a fresh form instead of mutating this one (stored timestamps are
// append-only), so reading the snapshot without locking is race-free.
// Callers must treat it as read-only (in particular, must not call
// Record on it) and see events published up to the call, not later ones.
func (s *Store) RoadTracker(road planar.EdgeID) Tracker {
	if tr := s.loadTracker(road); tr != nil {
		return *tr
	}
	return Tracker{}
}

// StorageStats summarizes per-edge storage of the exact store.
type StorageStats struct {
	// TimestampsPerRoad[i] is the number of stored timestamps of road i.
	TimestampsPerRoad []int
	// TotalTimestamps counts all stored road timestamps.
	TotalTimestamps int
	// Bytes is the exact-store footprint assuming 8-byte timestamps.
	Bytes int
}

// Storage reports the storage footprint of the exact store (road
// trackers only; world edges are identical across all compared systems
// and excluded, matching the paper's per-edge CDF in Fig. 11e).
func (s *Store) Storage() StorageStats {
	st := StorageStats{TimestampsPerRoad: make([]int, s.w.NumRoads())}
	for i := range st.TimestampsPerRoad {
		if tr := s.roads[i].Load(); tr != nil {
			n := tr.Len()
			st.TimestampsPerRoad[i] = n
			st.TotalTimestamps += n
		}
	}
	st.Bytes = st.TotalTimestamps * 8
	return st
}
