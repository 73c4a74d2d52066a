package stq

// System-level observability integration: enabling the registry, running
// a query burst, and checking that the snapshot, Prometheus exposition,
// and slow-query log all reflect the work done.

import (
	"strings"
	"testing"
	"time"
)

func TestSystemObservability(t *testing.T) {
	// The registry is process-global; leave it as we found it.
	ResetObservability()
	EnableObservability()
	defer func() {
		DisableObservability()
		ResetObservability()
	}()
	SetSlowQueryThreshold(time.Nanosecond) // everything is "slow"
	defer SetSlowQueryThreshold(0)

	sys, wl := newTestSystem(t)
	rect := centered(sys, 0.5)
	const burst = 8
	for i := 0; i < burst; i++ {
		if _, err := sys.Query(Query{Rect: rect, T1: wl.Horizon * 0.3, T2: wl.Horizon * 0.7, Kind: Kind(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}

	snap := sys.Snapshot()
	if !snap.Enabled {
		t.Error("snapshot says observability disabled")
	}
	if got := snap.Counter("stq.queries"); got != burst {
		t.Errorf("stq.queries = %d, want %d", got, burst)
	}
	if got := snap.Counter("query.served"); got == 0 {
		t.Error("query.served = 0 after a successful burst")
	}
	if got := snap.Counter("query.cut_roads_integrated"); got == 0 {
		t.Error("query.cut_roads_integrated = 0; perimeter integration not counted")
	}
	h, ok := snap.Histograms["query.latency_seconds"]
	if !ok || h.Count != burst {
		t.Errorf("query.latency_seconds count = %d (present=%v), want %d", h.Count, ok, burst)
	}
	if h.Sum <= 0 {
		t.Errorf("query.latency_seconds sum = %v, want > 0", h.Sum)
	}
	// Every phase of a transient query should have recorded something.
	if ph, ok := snap.Histograms["query.phase.region_build_seconds"]; !ok || ph.Count == 0 {
		t.Error("region_build phase histogram empty")
	}

	// With a 1ns threshold the whole burst lands in the slow log.
	slow := SlowQueries()
	if len(slow) != burst {
		t.Errorf("slow-query log has %d entries, want %d", len(slow), burst)
	}

	var prom, js strings.Builder
	if err := WriteMetrics(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE stq_queries counter", "query_latency_seconds_bucket{le=\"+Inf\"}", "query_latency_seconds_count 8"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
	if err := WriteMetricsJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"stq.queries": 8`) {
		t.Errorf("JSON exposition missing stq.queries=8:\n%s", js.String())
	}

	// stq.events_ingested counts every event once, whichever door it came
	// in by — Ingest, RecordBatch, or the per-event calls (which, before
	// they became batches of one, were not counted on a non-durable
	// system) — durable or not.
	gw := sys.Gateways()[0]
	road := sys.World().Star.Incident(gw)[0]
	for _, durable := range []bool{false, true} {
		ResetObservability()
		var s *System
		if durable {
			var err error
			if s, err = OpenDurable(sys.World(), Durability{Dir: t.TempDir()}); err != nil {
				t.Fatal(err)
			}
		} else {
			s = NewSystem(sys.World())
		}
		check := func(after string) {
			t.Helper()
			if got, want := s.Snapshot().Counter("stq.events_ingested"), uint64(s.NumEvents()); got != want || want == 0 {
				t.Errorf("durable=%v after %s: stq.events_ingested = %d, NumEvents = %d", durable, after, got, want)
			}
		}
		if err := s.Ingest(wl); err != nil {
			t.Fatal(err)
		}
		check("Ingest")
		if err := s.RecordEnter(gw, wl.Horizon+1); err != nil {
			t.Fatal(err)
		}
		if err := s.RecordMove(road, gw, wl.Horizon+2); err != nil {
			t.Fatal(err)
		}
		if err := s.RecordLeave(gw, wl.Horizon+3); err != nil {
			t.Fatal(err)
		}
		check("RecordEnter/Move/Leave")
		if err := s.RecordBatch([]Event{EnterEvent(gw, wl.Horizon+4), LeaveEvent(gw, wl.Horizon+5)}); err != nil {
			t.Fatal(err)
		}
		check("RecordBatch")
		if err := s.RecordLeave(gw, 0); err == nil {
			t.Fatal("time regression accepted")
		}
		check("a refused event")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotDisabledIsCheap: a disabled registry yields an empty-ish
// snapshot and queries record nothing.
func TestSystemObservabilityDisabledRecordsNothing(t *testing.T) {
	ResetObservability()
	DisableObservability()
	sys, wl := newTestSystem(t)
	if _, err := sys.Query(Query{Rect: centered(sys, 0.5), T1: wl.Horizon / 2, Kind: Snapshot}); err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	if snap.Enabled {
		t.Error("snapshot says enabled")
	}
	if got := snap.Counter("stq.queries"); got != 0 {
		t.Errorf("stq.queries = %d while disabled, want 0", got)
	}
}
