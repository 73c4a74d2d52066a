// Package obs is the dependency-free observability subsystem of the
// framework: an atomic counter/gauge/histogram registry with named
// metrics, per-query trace spans (region build, perimeter integration,
// network collection, privacy release), a slow-query log, and text/JSON
// exposition (expvar-style snapshot plus Prometheus text format).
//
// Instrumentation is globally gated: every metric operation first loads
// one atomic flag (Enabled) and returns immediately when observability
// is off. The disabled path performs no allocation and no store — hot
// paths can be instrumented unconditionally. When enabled, updates are
// lock-free atomics; only metric *creation* and snapshotting take the
// registry lock. DESIGN.md §9 documents the taxonomy and the overhead
// budget (≤2% on the query path; the benchmark's
// obs.trace_overhead_pct tracks it).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the global instrumentation gate. Metric handles stay valid
// while disabled; their update methods become no-ops.
var enabled atomic.Bool

// Enable turns instrumentation on.
func Enable() { enabled.Store(true) }

// Disable turns instrumentation off. Recorded values are kept; use
// Registry.Reset to zero them.
func Disable() { enabled.Store(false) }

// Enabled reports whether instrumentation is on.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing metric (events, messages,
// cache hits). The zero value is unusable; obtain counters from a
// Registry so they appear in snapshots.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Inc adds 1.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// AddInt adds n, ignoring negative values.
func (c *Counter) AddInt(n int) {
	if n > 0 && enabled.Load() {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (sensors alive, budget
// remaining), stored as a float64.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if enabled.Load() {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add accumulates delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric. Bucket i counts
// observations v with v ≤ bounds[i]; one implicit +Inf bucket catches
// the rest. Observations also accumulate into Count and Sum, so means
// are recoverable without the buckets.
type Histogram struct {
	name    string
	bounds  []float64 // sorted upper bounds; len(buckets) == len(bounds)+1
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v ⇒ bucket "≤ bound"
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets are the default duration buckets, in seconds: 1µs to
// ~4s in powers of 4, suited to the µs-scale query kernel and the
// ms-scale figure sweeps.
var LatencyBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4,
}

// Registry holds named metrics. Metric handles are created once
// (get-or-create, idempotent) and updated lock-free; the registry lock
// covers only creation, snapshot, and reset. The zero value is not
// usable; use NewRegistry or the package Default.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	// Slow-query log: ring of the most recent queries slower than the
	// threshold (0 disables the log).
	slowThreshNanos atomic.Int64
	slowMu          sync.Mutex
	slow            []SlowQuery
	slowNext        int
}

// slowCap bounds the slow-query ring.
const slowCap = 64

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry every instrumented package
// registers into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use. It
// panics if the name is already registered as a different metric kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls ignore bounds). Bounds
// must be sorted ascending.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not sorted", name))
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{name: name, bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
	r.histograms[name] = h
	return h
}

// checkFree panics when name is registered under another kind. Callers
// hold r.mu.
func (r *Registry) checkFree(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a counter, requested as %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a gauge, requested as %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a histogram, requested as %s", name, kind))
	}
}

// Reset zeroes every registered metric and clears the slow-query log.
// Metric handles stay valid. Intended for benchmarks and tests.
func (r *Registry) Reset() {
	r.mu.Lock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.histograms {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sumBits.Store(0)
	}
	r.mu.Unlock()
	r.slowMu.Lock()
	r.slow = nil
	r.slowNext = 0
	r.slowMu.Unlock()
}
