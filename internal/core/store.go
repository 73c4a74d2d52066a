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
// Each direction is tiered (DESIGN.md §12): recent timestamps live in a
// mutable hot slice, while a sealed cold prefix — when the store's
// tiered history is enabled — lives in an immutable delta-encoded
// history shared structurally across tracker snapshots. Every sealed
// timestamp precedes (≤) every hot timestamp of its direction, so
// counts compose by addition.
type Tracker struct {
	// fwd holds hot crossings in the road's U→V direction, rev in V→U.
	fwd, rev []float64
	// fwdHist and revHist are the immutable sealed prefixes; nil until
	// the first seal of the direction.
	fwdHist, revHist *history
}

// hot returns the hot-tier slice of one direction.
func (tr *Tracker) hot(forward bool) []float64 {
	if forward {
		return tr.fwd
	}
	return tr.rev
}

// hist returns the sealed history of one direction (possibly nil).
func (tr *Tracker) hist(forward bool) *history {
	if forward {
		return tr.fwdHist
	}
	return tr.revHist
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
// including t — the paper's C(γ, t): sealed-tier count (skip-index
// search) plus hot-tier count (0 before the tail, else a binary search).
func (tr *Tracker) Count(forward bool, t float64) int {
	return tr.hist(forward).countLE(t) + countLE(tr.hot(forward), t)
}

// countInDir returns Count(forward, t2) − Count(forward, t1), the
// crossings in (t1, t2], from one descent per tier: history.countIn, and
// a hot search for t2 past t1's count. An inverted or NaN pair may not
// fuse (its difference can be negative), so it takes the two Counts.
func (tr *Tracker) countInDir(forward bool, t1, t2 float64) int {
	if !(t1 <= t2) {
		return tr.Count(forward, t2) - tr.Count(forward, t1)
	}
	hot := tr.hot(forward)
	return tr.hist(forward).countIn(t1, t2) + countLE(hot[countLE(hot, t1):], t2)
}

// window is the per-direction cursor of a static query: the number of
// crossings ≤ t1 — exactly Count(forward, t1) — and the timestamps in
// (t1, t2] appended to dst, from one walk over one tracker snapshot.
// The sealed tier goes first; every sealed timestamp is ≤ every hot
// one, so the hot tail is only searched when the sealed walk ran out
// without meeting an event past t2.
func (tr *Tracker) window(forward bool, t1, t2 float64, dst []float64) (int, []float64) {
	le, dst, more := tr.hist(forward).window(t1, t2, dst)
	if more {
		hot := tr.hot(forward)
		lo := countLE(hot, t1)
		le += lo
		hot = hot[lo:]
		dst = append(dst, hot[:countLE(hot, t2)]...)
	}
	return le, dst
}

// Events returns one direction's full timestamp sequence — the sealed
// prefix materialized (decoded) followed by the hot tail. The returned
// slice is a fresh copy owned by the caller: it never aliases store
// internals, so mutating it cannot corrupt the store and later
// ingestion is never observable through it.
func (tr *Tracker) Events(forward bool) []float64 {
	hot, h := tr.hot(forward), tr.hist(forward)
	if h.hlen() == 0 && len(hot) == 0 {
		return nil
	}
	out := make([]float64, 0, h.hlen()+len(hot))
	out = h.appendTimes(out)
	return append(out, hot...)
}

// Len returns the total number of stored crossings across both tiers.
func (tr *Tracker) Len() int {
	return len(tr.fwd) + len(tr.rev) + tr.fwdHist.hlen() + tr.revHist.hlen()
}

// SealedLen returns the number of sealed (warm-tier) crossings of one
// direction.
func (tr *Tracker) SealedLen(forward bool) int { return tr.hist(forward).hlen() }

// last returns the most recent timestamp of one direction; ok is false
// for an empty direction.
func (tr *Tracker) last(forward bool) (t float64, ok bool) {
	if ts := tr.hot(forward); len(ts) > 0 {
		return ts[len(ts)-1], true
	}
	return tr.hist(forward).hlast()
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
