package obs

import (
	"time"
)

// Phase names one span of a query trace. The phases mirror the stages
// of Engine.Query: building the query region, integrating the
// perimeter forms, simulating the in-network collection, and (at the
// stq layer) the differentially private release.
type Phase uint8

// The trace phases.
const (
	PhaseRegionBuild Phase = iota
	PhasePerimeter
	PhaseNetwork
	PhasePrivacy
	NumPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseRegionBuild:
		return "region_build"
	case PhasePerimeter:
		return "perimeter_integration"
	case PhaseNetwork:
		return "network_collection"
	case PhasePrivacy:
		return "privacy_release"
	}
	return "unknown"
}

// Pre-registered trace histograms: fixed names, so Trace.Finish does no
// map lookups on the hot path.
var (
	queryLatency = Default.Histogram("query.latency_seconds", LatencyBuckets)
	phaseLatency = [NumPhases]*Histogram{
		PhaseRegionBuild: Default.Histogram("query.phase.region_build_seconds", LatencyBuckets),
		PhasePerimeter:   Default.Histogram("query.phase.perimeter_integration_seconds", LatencyBuckets),
		PhaseNetwork:     Default.Histogram("query.phase.network_collection_seconds", LatencyBuckets),
		PhasePrivacy:     Default.Histogram("query.phase.privacy_release_seconds", LatencyBuckets),
	}
)

// Trace is one query's span context: wall-clock phase durations
// accumulated as the query moves through the engine. A nil *Trace is a
// valid, free no-op — StartTrace returns nil while instrumentation is
// disabled, and every method is nil-safe, so the disabled path
// allocates nothing.
type Trace struct {
	reg     *Registry
	kind    string
	start   time.Time
	phaseAt [NumPhases]time.Time
	durs    [NumPhases]time.Duration
}

// StartTrace opens a trace for one query of the given kind, or returns
// nil while instrumentation is disabled.
func (r *Registry) StartTrace(kind string) *Trace {
	if !enabled.Load() {
		return nil
	}
	return &Trace{reg: r, kind: kind, start: time.Now()}
}

// Begin marks the start of phase p.
func (t *Trace) Begin(p Phase) {
	if t == nil {
		return
	}
	t.phaseAt[p] = time.Now()
}

// End closes phase p, accumulating its duration. Begin/End pairs may
// repeat; durations add up.
func (t *Trace) End(p Phase) {
	if t == nil || t.phaseAt[p].IsZero() {
		return
	}
	t.durs[p] += time.Since(t.phaseAt[p])
	t.phaseAt[p] = time.Time{}
}

// Finish closes the trace: the total and per-phase latencies are
// recorded into the registry histograms, and the query is appended to
// the slow-query log when it exceeded the threshold.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	total := time.Since(t.start)
	queryLatency.Observe(total.Seconds())
	for p := Phase(0); p < NumPhases; p++ {
		if t.durs[p] > 0 {
			phaseLatency[p].Observe(t.durs[p].Seconds())
		}
	}
	if th := t.reg.slowThreshNanos.Load(); th > 0 && total.Nanoseconds() >= th {
		t.reg.recordSlow(SlowQuery{
			Kind:   t.kind,
			Total:  total,
			Phases: t.durs,
			At:     time.Now(),
		})
	}
}

// SlowQuery is one slow-query log entry.
type SlowQuery struct {
	// Kind is the query kind label the trace was opened with.
	Kind string `json:"kind"`
	// Total is the end-to-end query duration.
	Total time.Duration `json:"total"`
	// Phases holds the per-phase durations, indexed by Phase.
	Phases [NumPhases]time.Duration `json:"phases"`
	// At is when the query finished.
	At time.Time `json:"at"`
}

// SetSlowQueryThreshold arms the slow-query log: finished traces at
// least d slow are kept in a bounded ring (most recent 64). d ≤ 0
// disables the log.
func (r *Registry) SetSlowQueryThreshold(d time.Duration) {
	r.slowThreshNanos.Store(d.Nanoseconds())
}

func (r *Registry) recordSlow(sq SlowQuery) {
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	if len(r.slow) < slowCap {
		r.slow = append(r.slow, sq)
		r.slowNext = len(r.slow) % slowCap
		return
	}
	r.slow[r.slowNext] = sq
	r.slowNext = (r.slowNext + 1) % slowCap
}

// SlowQueries returns the logged slow queries, oldest first.
func (r *Registry) SlowQueries() []SlowQuery {
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	out := make([]SlowQuery, 0, len(r.slow))
	if len(r.slow) == slowCap {
		out = append(out, r.slow[r.slowNext:]...)
		out = append(out, r.slow[:r.slowNext]...)
		return out
	}
	return append(out, r.slow...)
}
