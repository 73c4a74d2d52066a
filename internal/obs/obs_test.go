package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// withEnabled runs f with instrumentation forced on, restoring the
// previous state after.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	was := Enabled()
	Enable()
	defer func() {
		if !was {
			Disable()
		}
	}()
	f()
}

func TestCounterConcurrentIncrements(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		c := r.Counter("test.hits")
		const workers, per = 16, 5000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					c.Inc()
				}
			}()
		}
		wg.Wait()
		if got := c.Value(); got != workers*per {
			t.Fatalf("counter = %d, want %d", got, workers*per)
		}
	})
}

func TestGaugeConcurrentAdds(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		g := r.Gauge("test.budget")
		const workers, per = 8, 2000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					g.Add(0.5)
				}
			}()
		}
		wg.Wait()
		want := float64(workers*per) * 0.5
		if got := g.Value(); got != want {
			t.Fatalf("gauge = %v, want %v", got, want)
		}
	})
}

func TestHistogramBucketBoundaries(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		h := r.Histogram("test.latency", []float64{1, 10, 100})
		// Boundary values land in the "≤ bound" bucket; one past each
		// bound lands in the next.
		for _, v := range []float64{0.5, 1} { // ≤ 1
			h.Observe(v)
		}
		for _, v := range []float64{1.0001, 10} { // (1, 10]
			h.Observe(v)
		}
		for _, v := range []float64{99, 100} { // (10, 100]
			h.Observe(v)
		}
		h.Observe(1e9) // overflow bucket
		want := []uint64{2, 2, 2, 1}
		for i, w := range want {
			if got := h.buckets[i].Load(); got != w {
				t.Errorf("bucket %d = %d, want %d", i, got, w)
			}
		}
		if h.Count() != 7 {
			t.Errorf("count = %d, want 7", h.Count())
		}
		wantSum := 0.5 + 1 + 1.0001 + 10 + 99 + 100 + 1e9
		if got := h.Sum(); got != wantSum {
			t.Errorf("sum = %v, want %v", got, wantSum)
		}
	})
}

func TestRegistryGetOrCreateIdempotent(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("same name returned distinct counters")
	}
	if r.Histogram("h", []float64{1}) != r.Histogram("h", []float64{2}) {
		t.Error("same name returned distinct histograms")
	}
	defer func() {
		if recover() == nil {
			t.Error("cross-kind name reuse did not panic")
		}
	}()
	r.Gauge("x")
}

func TestSnapshotConsistencyUnderLoad(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		c := r.Counter("load.events")
		h := r.Histogram("load.lat", []float64{1, 2})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						c.Inc()
						h.Observe(1.5)
					}
				}
			}()
		}
		var last uint64
		for i := 0; i < 50; i++ {
			s := r.Snapshot()
			if got := s.Counter("load.events"); got < last {
				t.Fatalf("counter went backwards across snapshots: %d < %d", got, last)
			} else {
				last = got
			}
			hs := s.Histograms["load.lat"]
			var bsum uint64
			for _, b := range hs.Buckets {
				bsum += b
			}
			// Bucket increments precede the count increment, so a
			// concurrent snapshot may see bsum ≥ count, never less.
			if bsum < hs.Count {
				t.Fatalf("histogram buckets (%d) dropped below count (%d)", bsum, hs.Count)
			}
		}
		close(stop)
		wg.Wait()
	})
}

func TestDisabledPathDoesNotRecordOrAllocate(t *testing.T) {
	if Enabled() {
		t.Skip("instrumentation force-enabled elsewhere")
	}
	r := NewRegistry()
	c := r.Counter("off.counter")
	g := r.Gauge("off.gauge")
	h := r.Histogram("off.hist", LatencyBuckets)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(10)
		g.Set(4)
		g.Add(1)
		h.Observe(0.5)
		tr := r.StartTrace("q")
		tr.Begin(PhaseRegionBuild)
		tr.End(PhaseRegionBuild)
		tr.Finish()
	})
	if allocs != 0 {
		t.Errorf("disabled instrumentation allocated %.1f times per op, want 0", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("disabled instrumentation recorded values")
	}
}

func TestTracePhasesAndSlowLog(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		r.SetSlowQueryThreshold(time.Nanosecond) // everything is slow
		tr := r.StartTrace("transient")
		if tr == nil {
			t.Fatal("StartTrace returned nil while enabled")
		}
		tr.Begin(PhasePerimeter)
		time.Sleep(time.Millisecond)
		tr.End(PhasePerimeter)
		tr.Finish()
		slow := r.SlowQueries()
		if len(slow) != 1 {
			t.Fatalf("slow log has %d entries, want 1", len(slow))
		}
		sq := slow[0]
		if sq.Kind != "transient" {
			t.Errorf("slow entry kind %q", sq.Kind)
		}
		if sq.Phases[PhasePerimeter] <= 0 || sq.Total < sq.Phases[PhasePerimeter] {
			t.Errorf("phase/total durations inconsistent: %v / %v", sq.Phases[PhasePerimeter], sq.Total)
		}
		// The ring keeps the most recent slowCap entries.
		for i := 0; i < slowCap+10; i++ {
			tr := r.StartTrace("snapshot")
			tr.Finish()
		}
		slow = r.SlowQueries()
		if len(slow) != slowCap {
			t.Fatalf("slow ring has %d entries, want %d", len(slow), slowCap)
		}
		for _, sq := range slow {
			if sq.Kind != "snapshot" {
				t.Fatalf("oldest entries not evicted: found kind %q", sq.Kind)
			}
		}
	})
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Begin(PhaseNetwork)
	tr.End(PhaseNetwork)
	tr.Finish()
}

func TestExpositionFormats(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		r.Counter("exp.hits").Add(3)
		r.Gauge("exp.eps").Set(1.5)
		h := r.Histogram("exp.lat", []float64{1, 2})
		h.Observe(0.5)
		h.Observe(1.5)
		h.Observe(99)

		var prom bytes.Buffer
		if err := r.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		text := prom.String()
		for _, want := range []string{
			"# TYPE exp_hits counter\nexp_hits 3",
			"# TYPE exp_eps gauge\nexp_eps 1.5",
			`exp_lat_bucket{le="1"} 1`,
			`exp_lat_bucket{le="2"} 2`,
			`exp_lat_bucket{le="+Inf"} 3`,
			"exp_lat_count 3",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("prometheus output missing %q:\n%s", want, text)
			}
		}

		var js bytes.Buffer
		if err := r.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(js.Bytes(), &snap); err != nil {
			t.Fatalf("snapshot JSON does not round-trip: %v", err)
		}
		if snap.Counter("exp.hits") != 3 || snap.Gauge("exp.eps") != 1.5 {
			t.Error("JSON snapshot lost values")
		}
		if snap.Histograms["exp.lat"].Count != 3 {
			t.Error("JSON snapshot lost histogram")
		}
	})
}

func TestReset(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		c := r.Counter("rst.c")
		c.Add(7)
		h := r.Histogram("rst.h", []float64{1})
		h.Observe(0.5)
		r.SetSlowQueryThreshold(time.Nanosecond)
		tr := r.StartTrace("q")
		tr.Finish()
		r.Reset()
		if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
			t.Error("Reset left values behind")
		}
		if len(r.SlowQueries()) != 0 {
			t.Error("Reset left slow-query entries")
		}
	})
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		h := r.Histogram("test.q", []float64{10, 20, 40})
		// 100 uniform observations in (0, 10]: every quantile
		// interpolates inside the first bucket.
		for i := 1; i <= 100; i++ {
			h.Observe(float64(i) / 10)
		}
		s := r.Snapshot().Histograms["test.q"]
		if got := s.Quantile(0.5); got != 5 {
			t.Errorf("p50 = %v, want 5", got)
		}
		if got := s.Quantile(1); got != 10 {
			t.Errorf("p100 = %v, want 10", got)
		}
		// Add 100 in (10, 20]: the median straddles the first bound and
		// p75 sits mid-second-bucket.
		for i := 1; i <= 100; i++ {
			h.Observe(10 + float64(i)/10)
		}
		s = r.Snapshot().Histograms["test.q"]
		if got := s.Quantile(0.75); got != 15 {
			t.Errorf("p75 = %v, want 15", got)
		}
		// Overflow observations report the last finite bound, not +Inf.
		h.Observe(1e9)
		s = r.Snapshot().Histograms["test.q"]
		if got := s.Quantile(1); got != 40 {
			t.Errorf("overflow quantile = %v, want last finite bound 40", got)
		}
		// Degenerate inputs.
		if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
			t.Errorf("empty histogram quantile = %v, want 0", got)
		}
		if got, want := s.Quantile(-1), s.Quantile(0); got != want {
			t.Errorf("q<0 quantile = %v, want clamp to q=0 (%v)", got, want)
		}
		if got, want := s.Quantile(2), s.Quantile(1); got != want {
			t.Errorf("q>1 quantile = %v, want clamp to q=1 (%v)", got, want)
		}
	})
}
