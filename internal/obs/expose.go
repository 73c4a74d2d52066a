package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	// Count and Sum aggregate every observation.
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	// Bounds are the bucket upper bounds; Buckets[i] counts
	// observations ≤ Bounds[i], with one trailing +Inf bucket
	// (len(Buckets) == len(Bounds)+1).
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the recorded
// distribution by linear interpolation inside the bucket holding the
// target rank, taking the bucket's lower bound as 0 for the first
// bucket. Observations landing in the +Inf overflow bucket report the
// last finite bound. Returns 0 when the histogram is empty. Serving
// layers use this for p50/p95/p99 in stats endpoints and gates.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum, lo := 0.0, 0.0
	for i, b := range h.Buckets {
		c := float64(b)
		if c > 0 && cum+c >= rank {
			if i >= len(h.Bounds) {
				return lo // +Inf bucket: report its lower edge
			}
			frac := (rank - cum) / c
			return lo + (h.Bounds[i]-lo)*frac
		}
		cum += c
		if i < len(h.Bounds) {
			lo = h.Bounds[i]
		}
	}
	return lo
}

// Snapshot is a point-in-time copy of a registry: every counter, gauge
// and histogram by name, plus the slow-query log. It is an expvar-style
// value — json.Marshal it, or render it with WritePrometheus.
type Snapshot struct {
	// Enabled reports whether instrumentation was on at snapshot time.
	Enabled     bool                         `json:"enabled"`
	Counters    map[string]uint64            `json:"counters"`
	Gauges      map[string]float64           `json:"gauges"`
	Histograms  map[string]HistogramSnapshot `json:"histograms"`
	SlowQueries []SlowQuery                  `json:"slow_queries,omitempty"`
}

// Counter returns a counter's value by name (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge's value by name (0 when absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// Snapshot copies the registry. Each value is read atomically; the
// registry lock only pins the metric set, so snapshotting is safe (and
// cheap) while hot paths keep updating.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		Enabled:    Enabled(),
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Count:   h.Count(),
			Sum:     h.Sum(),
			Bounds:  h.bounds, // immutable after creation
			Buckets: make([]uint64, len(h.buckets)),
		}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
	}
	r.mu.Unlock()
	s.SlowQueries = r.SlowQueries()
	return s
}

// WriteJSON writes the snapshot as indented JSON (expvar-style dump).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (metric names have '.' mapped to '_').
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(s.Gauges[name]))
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Buckets[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", pn, promFloat(bound), cum)
		}
		cum += h.Buckets[len(h.Buckets)-1]
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
		fmt.Fprintf(&b, "%s_sum %s\n", pn, promFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", pn, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, name)
}

func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
