package learned

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/roadnet"
)

func sortedTimes(rng *rand.Rand, n int, span float64) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = rng.Float64() * span
	}
	sort.Float64s(ts)
	return ts
}

func TestExactModelIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := sortedTimes(rng, 500, 1000)
	m := ExactTrainer{}.Train(ts)
	for trial := 0; trial < 100; trial++ {
		q := rng.Float64() * 1100
		want := 0.0
		for _, x := range ts {
			if x <= q {
				want++
			}
		}
		if got := m.CountAt(q); got != want {
			t.Fatalf("CountAt(%v) = %v, want %v", q, got, want)
		}
	}
	if m.SizeBytes() != 500*8 {
		t.Errorf("exact size = %d", m.SizeBytes())
	}
}

func TestModelsBasicContract(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ts := sortedTimes(rng, 300, 5000)
	for _, tr := range Registry() {
		m := tr.Train(ts)
		if m.Name() == "" {
			t.Errorf("%T has empty name", m)
		}
		// Before the first event: 0. After the last: n.
		if got := m.CountAt(ts[0] - 1); got != 0 {
			t.Errorf("%s: count before first = %v", tr.Name(), got)
		}
		if got := m.CountAt(ts[len(ts)-1] + 1); got != 300 {
			t.Errorf("%s: count after last = %v, want 300", tr.Name(), got)
		}
		// Counts stay within [0, n].
		for q := -100.0; q < 5200; q += 97 {
			v := m.CountAt(q)
			if v < 0 || v > 300 {
				t.Fatalf("%s: CountAt(%v) = %v out of range", tr.Name(), q, v)
			}
		}
		if m.SizeBytes() <= 0 {
			t.Errorf("%s: non-positive size", tr.Name())
		}
	}
}

func TestModelsOnEmptyAndSingleton(t *testing.T) {
	for _, tr := range Registry() {
		m := tr.Train(nil)
		if got := m.CountAt(5); got != 0 {
			t.Errorf("%s: empty model count = %v", tr.Name(), got)
		}
		m1 := tr.Train([]float64{10})
		if got := m1.CountAt(9); got != 0 {
			t.Errorf("%s: singleton before = %v", tr.Name(), got)
		}
		if got := m1.CountAt(10); got != 1 {
			t.Errorf("%s: singleton at = %v", tr.Name(), got)
		}
	}
}

func TestModelsDuplicateTimestamps(t *testing.T) {
	ts := []float64{5, 5, 5, 5, 5}
	for _, tr := range Registry() {
		m := tr.Train(ts)
		if got := m.CountAt(4); got != 0 {
			t.Errorf("%s: before burst = %v", tr.Name(), got)
		}
		if got := m.CountAt(6); got != 5 {
			t.Errorf("%s: after burst = %v, want 5", tr.Name(), got)
		}
	}
}

func TestRegressionAccuracyOnUniformArrivals(t *testing.T) {
	// Uniform arrivals have a linear CDF: every regressor should track it
	// within a few counts.
	rng := rand.New(rand.NewSource(3))
	ts := sortedTimes(rng, 1000, 10000)
	exact := ExactTrainer{}.Train(ts)
	for _, tr := range Registry() {
		m := tr.Train(ts)
		var maxErr float64
		for q := 0.0; q <= 10000; q += 111 {
			if e := math.Abs(m.CountAt(q) - exact.CountAt(q)); e > maxErr {
				maxErr = e
			}
		}
		// Step and linear are coarse but must stay within 8% of n.
		if maxErr > 80 {
			t.Errorf("%s: max error %v on uniform arrivals", tr.Name(), maxErr)
		}
	}
}

func TestPiecewiseBeatsLinearOnBurstyData(t *testing.T) {
	// A bursty CDF (two bursts with a long gap) is badly linear; the
	// piecewise model must achieve lower max error.
	var ts []float64
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		ts = append(ts, rng.Float64()*100)
	}
	for i := 0; i < 200; i++ {
		ts = append(ts, 9000+rng.Float64()*100)
	}
	sort.Float64s(ts)
	exact := ExactTrainer{}.Train(ts)
	maxErr := func(m Model) float64 {
		var e float64
		for q := 0.0; q <= 9200; q += 53 {
			if d := math.Abs(m.CountAt(q) - exact.CountAt(q)); d > e {
				e = d
			}
		}
		return e
	}
	lin := maxErr(LinearTrainer{}.Train(ts))
	pwl := maxErr(PiecewiseTrainer{Segments: 8}.Train(ts))
	if pwl >= lin {
		t.Errorf("piecewise error %v not better than linear %v on bursty data", pwl, lin)
	}
	// Equal-frequency knots bound the within-segment error by
	// n/segments = 400/8 = 50 counts.
	if pwl > 51 {
		t.Errorf("piecewise error %v exceeds the n/segments bound", pwl)
	}
}

func TestModelMonotoneProperty(t *testing.T) {
	// CountAt must be monotone non-decreasing for every trainer.
	cfg := &quick.Config{MaxCount: 20}
	for _, tr := range Registry() {
		tr := tr
		err := quick.Check(func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			ts := sortedTimes(rng, 50+rng.Intn(200), 1000)
			m := tr.Train(ts)
			if pt, ok := tr.(PolyTrainer); ok && !keptMonotoneFit(pt, ts, m) {
				return false
			}
			prev := -1.0
			for q := -10.0; q < 1100; q += 7 {
				v := m.CountAt(q)
				if v < prev-1e-9 {
					return false
				}
				if v > prev {
					prev = v
				}
			}
			return true
		}, cfg)
		if err != nil {
			t.Errorf("%s: %v", tr.Name(), err)
		}
	}
}

// keptMonotoneFit reports whether m is, bit for bit, the unconstrained
// least-squares fit of pt's degree whenever that fit was already
// non-decreasing — the monotonicity fallback must not touch such fits.
func keptMonotoneFit(pt PolyTrainer, ts []float64, m Model) bool {
	first, span := ts[0], ts[len(ts)-1]-ts[0]
	coef, ok := fitPoly(ts, first, 1/span, pt.Degree)
	if !ok || !nonDecreasing(coef) {
		return true
	}
	pm, ok := m.(*polyModel)
	if !ok || pm.deg != pt.Degree || len(pm.coef) != len(coef) {
		return false
	}
	for i := range coef {
		if math.Float64bits(pm.coef[i]) != math.Float64bits(coef[i]) {
			return false
		}
	}
	return true
}

// TestPolyMonotoneFallback pins the fallback on fixed seeds: a fit whose
// derivative dips below zero inside the span is replaced by a lower
// degree that does not (pre-fix, TestModelMonotoneProperty failed ≈8 % of
// its runs on such draws), and a fit that was already monotone is
// returned untouched.
func TestPolyMonotoneFallback(t *testing.T) {
	fellBack := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts := sortedTimes(rng, 50+rng.Intn(200), 1000)
		for _, pt := range []PolyTrainer{{Degree: 2}, {Degree: 3}} {
			m := pt.Train(ts)
			if !keptMonotoneFit(pt, ts, m) {
				t.Fatalf("seed %d %s: an already-monotone fit was altered", seed, pt.Name())
			}
			if m.Name() != pt.Name() {
				fellBack++
			}
			prev := 0.0
			for q := -1.0; q < 1001; q += 0.5 {
				v := m.CountAt(q)
				if v < prev-1e-9 {
					t.Fatalf("seed %d %s (%s): CountAt(%v) = %v after %v", seed, pt.Name(), m.Name(), q, v, prev)
				}
				prev = math.Max(prev, v)
			}
		}
	}
	if fellBack == 0 {
		t.Fatal("no seed exercised the fallback; fixture vacuous")
	}
	t.Logf("%d of 600 fits fell back to a lower degree", fellBack)
}

func TestConstantSizeModels(t *testing.T) {
	// Model storage must not grow with the event count (except exact).
	rng := rand.New(rand.NewSource(5))
	small := sortedTimes(rng, 100, 1000)
	big := sortedTimes(rng, 10000, 1000)
	for _, tr := range Registry() {
		if tr.Name() == "exact" {
			continue
		}
		s1 := tr.Train(small).SizeBytes()
		s2 := tr.Train(big).SizeBytes()
		if s2 > s1 {
			t.Errorf("%s: size grew from %d to %d with more events", tr.Name(), s1, s2)
		}
	}
}

func TestRollingStore(t *testing.T) {
	r, err := NewRolling(PiecewiseTrainer{Segments: 4}, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	var all []float64
	tm := 0.0
	for i := 0; i < 1000; i++ {
		tm += rng.Float64() * 10
		all = append(all, tm)
		if err := r.Append(tm); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 1000 {
		t.Errorf("Len = %d", r.Len())
	}
	// Window: model (≤100) + buffer (<100).
	if ws := r.WindowSize(); ws > 200 {
		t.Errorf("window = %d, want ≤ 200", ws)
	}
	// Total count at +∞ is exact.
	if got := r.CountAt(tm + 1); got != 1000 {
		t.Errorf("final count = %v, want 1000", got)
	}
	// Within the resolvable window the count is approximately right.
	windowStart := all[len(all)-r.WindowSize()]
	for q := windowStart; q < tm; q += (tm - windowStart) / 20 {
		want := float64(sort.SearchFloat64s(all, q+1e-12))
		got := r.CountAt(q)
		if math.Abs(got-want) > 25 {
			t.Fatalf("rolling count at %v = %v, want ≈%v", q, got, want)
		}
	}
	// Constant storage.
	if r.SizeBytes() > 100*8+16*8+8 {
		t.Errorf("rolling size = %d, not constant-bounded", r.SizeBytes())
	}
}

func TestRollingValidation(t *testing.T) {
	if _, err := NewRolling(LinearTrainer{}, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewRolling(ExactTrainer{}, 10); err == nil {
		t.Error("exact trainer accepted for rolling")
	}
	r, err := NewRolling(LinearTrainer{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Append(5); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(3); err == nil {
		t.Error("time regression accepted")
	}
}

// TestRollingRejectsRegressionAfterFlush is the regression test for the
// post-flush monotonicity hole: filling the buffer to capacity flushes
// it, and an out-of-order event arriving into the then-empty buffer used
// to be silently accepted (corrupting CountAt). Monotonicity must hold
// against the last ingested time, not the buffer tail.
func TestRollingRejectsRegressionAfterFlush(t *testing.T) {
	const cap = 10
	r, err := NewRolling(LinearTrainer{}, cap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap; i++ {
		if err := r.Append(float64(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.buffer) != 0 {
		t.Fatalf("buffer not flushed at capacity: %d events", len(r.buffer))
	}
	// Older than the entire model window: must be rejected.
	if err := r.Append(1); err == nil {
		t.Error("pre-window event accepted right after flush")
	}
	if got := r.CountAt(50); got != 0 {
		t.Errorf("CountAt(50) = %v after rejected regression, want 0", got)
	}
	// Equal to the last ingested time is still fine (non-decreasing).
	if err := r.Append(float64(100 + cap - 1)); err != nil {
		t.Errorf("equal-time append rejected: %v", err)
	}
}

// TestLearnedStoreEndToEnd trains a learned store from a real workload
// and checks that snapshot counts stay close to the exact store's.
func TestLearnedStoreEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w, err := roadnet.GridCity(
		roadnet.GridOpts{NX: 10, NY: 10, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 100, Horizon: 20000, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 300, LeaveProb: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	if err := wl.Feed(st); err != nil {
		t.Fatal(err)
	}
	exactStorage := st.Storage().Bytes
	for _, tr := range Registry() {
		ls := FromExact(st, tr)
		// Exact-trained learned store must agree perfectly.
		b := w.Bounds()
		rect := geom.RectWH(b.Min.X+b.Width()/4, b.Min.Y+b.Height()/4, b.Width()/2, b.Height()/2)
		r, err := core.NewRegion(w, w.JunctionsIn(rect))
		if err != nil {
			t.Fatal(err)
		}
		var totalAbs, n float64
		for ts := 500.0; ts < wl.Horizon; ts += 977 {
			ex := core.SnapshotCount(st, r, ts)
			got := core.SnapshotCount(ls, r, ts)
			if tr.Name() == "exact" && got != ex {
				t.Fatalf("exact learned store deviates: %v vs %v", got, ex)
			}
			totalAbs += math.Abs(got - ex)
			n++
		}
		if avg := totalAbs / n; tr.Name() != "exact" && avg > 10 {
			t.Errorf("%s: mean snapshot deviation %v too high", tr.Name(), avg)
		}
		// Constant-size models must beat exact storage on this workload.
		if tr.Name() != "exact" && tr.Name() != "pwl8" {
			if s := ls.Storage(nil); s > exactStorage*3 {
				t.Errorf("%s: storage %d vs exact %d", tr.Name(), s, exactStorage)
			}
		}
	}
}

func TestLearnedStoreStorageAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 6, NY: 6, Spacing: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 30, Horizon: 5000, TripsPerObject: 3,
		MeanSpeed: 10, MeanPause: 100, LeaveProb: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	if err := wl.Feed(st); err != nil {
		t.Fatal(err)
	}
	ls := FromExact(st, LinearTrainer{})
	all := ls.Storage(nil)
	sizes := ls.PerEdgeSizes()
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	if sum != all {
		t.Errorf("per-edge sum %d != total %d", sum, all)
	}
	// Subset accounting.
	var some []int
	for e, s := range sizes {
		if s > 0 {
			some = append(some, e)
		}
	}
	if len(some) == 0 {
		t.Fatal("no active edges")
	}
}
