package query

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sampled"
)

// This file implements the query-plan cache: compiled plans — the
// region with its memoized perimeter cut list, the missed verdict, and
// the deterministic collection cost — are memoized per canonicalized
// request region so repeated queries skip region construction,
// perimeter extraction, and network simulation entirely. There is no
// invalidation: the cache lives exactly as long as its engine, and
// stq.System rebuilds engines only on placement or plan-cache capacity
// changes — never on Ingest — so ingestion alone never evicts a plan.
// DESIGN.md §10 has the contract.

// DefaultPlanCacheCapacity is the plan-cache entry budget of a new
// engine. SetPlanCacheCapacity overrides it; 0 disables caching.
const DefaultPlanCacheCapacity = 256

// Plan-cache observability metrics (internal/obs).
var (
	mPlanHits      = obs.Default.Counter("query.plan_hits")
	mPlanMisses    = obs.Default.Counter("query.plan_misses")
	mPlanEvictions = obs.Default.Counter("query.plan_evictions")
)

// planKey canonicalizes the plan-relevant part of a Request. The exact
// rectangle bits participate (not just the junction set it selects)
// because the unsampled collection cost floods SensorsIn(rect); Bound
// participates because sampled engines approximate per bound. Times and
// Kind deliberately do not: the compiled plan is purely spatial, and
// counts are always evaluated fresh against the live store.
type planKey struct {
	x0, y0, x1, y1 uint64
	bound          sampled.Bound
}

func planKeyOf(req Request) planKey {
	return planKey{
		x0:    math.Float64bits(req.Rect.Min.X),
		y0:    math.Float64bits(req.Rect.Min.Y),
		x1:    math.Float64bits(req.Rect.Max.X),
		y1:    math.Float64bits(req.Rect.Max.Y),
		bound: req.Bound,
	}
}

// CoalesceKey identifies one request for in-flight coalescing by a
// serving layer: the compiled-plan identity (exactly planKeyOf — rect
// bits plus bound) extended with the time interval and kind. Two
// requests share a key iff one engine execution can answer both, so the
// coalescer and the plan cache always agree on which requests are "the
// same region". Keys are comparable and opaque.
type CoalesceKey struct {
	plan   planKey
	t1, t2 uint64
	kind   Kind
}

// CoalesceKeyOf canonicalizes req into its coalescing identity.
func CoalesceKeyOf(req Request) CoalesceKey {
	return CoalesceKey{
		plan: planKeyOf(req),
		t1:   math.Float64bits(req.T1),
		t2:   math.Float64bits(req.T2),
		kind: req.Kind,
	}
}

// cachedPlan is one compiled plan, held by value: the cache copies it
// in and out, so a compile allocates no plan. Entries are immutable once
// published to the cache: a plan is fully built — including its cost
// metrics — before insertion, so concurrent readers share its region
// without synchronization. The region's cut list memoizes internally
// behind a sync.Once, which is the only (safe) post-publication
// mutation.
type cachedPlan struct {
	region    *core.Region
	missed    bool
	exactSize int
	// net is the memoized collection cost; zero for a missed region.
	net netsim.Metrics
}

// planCache memoizes compiled plans in one map guarded by an RWMutex:
// a hit is the read lock and one lookup (no allocation, no write to
// shared state beyond the counters), an insert is O(1) under the write
// lock. Eviction is FIFO over insertion order, kept as a fixed ring of
// the resident keys — the workloads this serves re-ask a stable set of
// regions, so a working set no larger than capacity never evicts, and
// recency tracking is not worth making hits write anything.
type planCache struct {
	capacity int
	mu       sync.RWMutex
	plans    map[planKey]cachedPlan
	// ring holds exactly the keys of plans, in insertion order starting
	// at head once it has grown to capacity (before that, at 0).
	ring    []planKey
	head    int
	hits    atomic.Uint64
	misses  atomic.Uint64
	evicted atomic.Uint64
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return nil
	}
	return &planCache{capacity: capacity, plans: make(map[planKey]cachedPlan)}
}

// get returns the cached plan for k and whether there was one.
func (c *planCache) get(k planKey) (cachedPlan, bool) {
	c.mu.RLock()
	p, ok := c.plans[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		mPlanHits.Inc()
		return p, true
	}
	c.misses.Add(1)
	mPlanMisses.Inc()
	return cachedPlan{}, false
}

// put publishes a fully built plan. Concurrent builders of the same key
// may both insert; the last one wins and the entries are
// interchangeable.
func (c *planCache) put(k planKey, p cachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.plans[k]; !exists {
		if len(c.ring) < c.capacity {
			c.ring = append(c.ring, k)
		} else {
			// The oldest resident key makes room; it is never the new key.
			delete(c.plans, c.ring[c.head])
			c.evicted.Add(1)
			mPlanEvictions.Inc()
			c.ring[c.head] = k
			c.head = (c.head + 1) % c.capacity
		}
	}
	c.plans[k] = p
}

// PlanCacheStats is a point-in-time snapshot of one engine's plan cache.
type PlanCacheStats struct {
	// Enabled is false when the engine caches nothing (capacity 0).
	Enabled bool
	// Capacity and Entries size the cache.
	Capacity, Entries int
	// Hits, Misses, Evictions count lookups since engine construction.
	Hits, Misses, Evictions uint64
}

// PlanCacheStats reports the engine's plan-cache counters.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	c := e.cache
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.RLock()
	entries := len(c.plans)
	c.mu.RUnlock()
	return PlanCacheStats{
		Enabled:   true,
		Capacity:  c.capacity,
		Entries:   entries,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicted.Load(),
	}
}

// SetPlanCacheCapacity resizes the plan cache: n entries, or 0 (or
// negative) to disable caching. The cache restarts empty. Not safe to
// call concurrently with Query — configure at engine setup.
func (e *Engine) SetPlanCacheCapacity(n int) {
	e.cache = newPlanCache(n)
}
