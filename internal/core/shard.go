package core

import (
	"math"
	"sync"

	"repro/internal/obs"
	"repro/internal/planar"
)

// This file implements the concurrent substrate of the sharded Store:
// lock-striped writers and epoch-published immutable read snapshots.
//
// Writers are partitioned into numShards stripes keyed by tracked-edge
// ID (roads and world edges alike), so concurrent ingestion streams on
// disjoint stripes never contend on one lock. Readers take no locks at
// all: every edge's tracking form is published behind an atomic pointer
// as an immutable snapshot, and a query integrates its perimeter
// against whatever snapshots are current when it reads them. DESIGN.md
// §10 states the full contract.

// numShards is the write-lock stripe count. 32 stripes keep the whole
// touched-shard set of a batch representable as one uint32 bitmask and
// are plenty to make writer-writer contention negligible at the
// goroutine counts a single process serves.
const (
	shardBits = 5
	numShards = 1 << shardBits
	shardMask = numShards - 1
)

// Observability metrics: write-lock striping effectiveness. Contended
// acquisitions are the ones where TryLock failed and the writer had to
// block; the contention rate is contended/acquisitions.
var (
	mShardLocks     = obs.Default.Counter("core.shard_lock_acquisitions")
	mShardContended = obs.Default.Counter("core.shard_lock_contended")
)

// Ordering names the store's event-time contract, of which there is one:
// OrderPerEdge.
//
// Deprecated: every store checks time order per tracking-form direction
// and nothing else; the type survives only for SetOrdering's callers.
type Ordering uint8

// OrderPerEdge requires time order only per tracking-form direction:
// each sensing edge's γ⁺/γ⁻ sequences stay monotone, but independent
// edges may ingest at independent clocks. This is the in-network reality
// — every sensor orders only its own crossings — and it is what lets
// concurrent writers ingest disjoint road stripes without coordination.
//
// Deprecated: it is the only contract; see Ordering.
const OrderPerEdge Ordering = 1

// shard is one write stripe: a mutex serializing writers that touch the
// stripe. Trackers are published per edge (Store.roads), not per
// stripe, so a reader of one cut sees both directions of its form in a
// single consistent snapshot.
type shard struct {
	mu sync.Mutex
}

// lock acquires the stripe mutex, counting contended acquisitions.
func (sh *shard) lock() {
	if !sh.mu.TryLock() {
		mShardContended.Inc()
		sh.mu.Lock()
	}
	mShardLocks.Inc()
}

// shardOfRoad stripes by the low ID bits so adjacent edges (which tend
// to be ingested by nearby sensors) spread across stripes.
func shardOfRoad(road planar.EdgeID) int { return int(road) & shardMask }

// loadTracker returns the published tracking form of one tracked edge;
// nil means no events yet.
func (s *Store) loadTracker(road planar.EdgeID) *Tracker {
	return s.roads[road].Load()
}

// growFor returns ts with room for `add` more elements, growing at most
// once: to the exact need when the tracker is fresh, doubling otherwise
// so repeated small batches stay amortized-linear.
func growFor(ts []float64, add int) []float64 {
	need := len(ts) + add
	if need <= cap(ts) {
		return ts
	}
	newCap := 2 * cap(ts)
	if newCap < need {
		newCap = need
	}
	nt := make([]float64, len(ts), newCap)
	copy(nt, ts)
	return nt
}

// advanceClock lifts the store clock to at least t (CAS max).
func (s *Store) advanceClock(t float64) {
	for {
		old := s.clockBits.Load()
		if math.Float64frombits(old) >= t {
			return
		}
		if s.clockBits.CompareAndSwap(old, math.Float64bits(t)) {
			return
		}
	}
}

// commit publishes the bookkeeping of n successfully applied events
// ending at time t.
func (s *Store) commit(t float64, n int) {
	s.advanceClock(t)
	s.events.Add(int64(n))
}
