package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mobility"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// The fused kernels (Counter.CountCuts / CutFlow) must be bit-identical
// to the per-edge reference implementations — not just close: the exact
// store's counts are integers, and the learned store's kernels replicate
// the reference accumulation order. These property tests sweep random
// worlds, workloads and query rects.

// freshRegion rebuilds r without its memoized perimeter so each check
// exercises an independent scan.
func freshRegion(t *testing.T, r *core.Region) *core.Region {
	t.Helper()
	nr, err := core.NewRegion(r.World(), r.Junctions())
	if err != nil {
		t.Fatal(err)
	}
	return nr
}

func TestFusedSnapshotBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		fx := newFixture(t, 400+seed,
			roadnet.GridOpts{NX: 9 + int(seed), NY: 9, Spacing: 60, Jitter: 0.2, RemoveFrac: 0.2, CurveFrac: 0.1},
			mobility.Opts{Objects: 60 + 20*int(seed), Horizon: 15000, TripsPerObject: 4,
				MeanSpeed: 9, MeanPause: 250, LeaveProb: 0.5, HotspotBias: 0.3})
		rng := rand.New(rand.NewSource(500 + seed))
		for trial := 0; trial < 40; trial++ {
			r := randomRegion(t, fx.w, rng)
			ts := rng.Float64() * fx.wl.Horizon
			fused := core.SnapshotCount(fx.st, r, ts)
			ref := core.SnapshotCountReference(fx.st, freshRegion(t, r), ts)
			if fused != ref {
				t.Fatalf("seed %d trial %d: fused snapshot %v != reference %v", seed, trial, fused, ref)
			}
		}
	}
}

func TestFusedTransientBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		fx := newFixture(t, 410+seed,
			roadnet.GridOpts{NX: 10, NY: 8 + int(seed), Spacing: 55, Jitter: 0.25, RemoveFrac: 0.15, CurveFrac: 0.1},
			mobility.Opts{Objects: 70, Horizon: 18000, TripsPerObject: 4,
				MeanSpeed: 11, MeanPause: 300, LeaveProb: 0.6, HotspotBias: 0.4})
		rng := rand.New(rand.NewSource(510 + seed))
		for trial := 0; trial < 40; trial++ {
			r := randomRegion(t, fx.w, rng)
			t1 := rng.Float64() * fx.wl.Horizon
			t2 := t1 + rng.Float64()*(fx.wl.Horizon-t1)
			fused := core.TransientCount(fx.st, r, t1, t2)
			ref := core.TransientCountReference(fx.st, freshRegion(t, r), t1, t2)
			if fused != ref {
				t.Fatalf("seed %d trial %d: fused transient %v != reference %v", seed, trial, fused, ref)
			}
		}
	}
}

func TestFusedStaticSampledBitIdentical(t *testing.T) {
	fx := smallFixture(t, 421)
	rng := rand.New(rand.NewSource(522))
	for trial := 0; trial < 40; trial++ {
		r := randomRegion(t, fx.w, rng)
		t1 := rng.Float64() * fx.wl.Horizon * 0.8
		t2 := t1 + rng.Float64()*(fx.wl.Horizon-t1)
		samples := 2 + rng.Intn(30)
		fused := core.StaticCountSampled(fx.st, r, t1, t2, samples)
		ref := core.StaticCountSampledReference(fx.st, freshRegion(t, r), t1, t2, samples)
		if fused != ref {
			t.Fatalf("trial %d (samples=%d): fused static %v != reference %v", trial, samples, fused, ref)
		}
	}
}

// TestLargePerimeterIntegration builds a checkerboard region whose
// perimeter runs to thousands of cuts and checks the fused sums against
// the reference.
func TestLargePerimeterIntegration(t *testing.T) {
	rng := rand.New(rand.NewSource(425))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 40, NY: 40, Spacing: 30, Jitter: 0.1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 120, Horizon: 20000, TripsPerObject: 3,
		MeanSpeed: 15, MeanPause: 200, LeaveProb: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	if err := wl.Feed(st); err != nil {
		t.Fatal(err)
	}
	// Checkerboard: every other junction → almost every road is cut.
	var js []planar.NodeID
	for n := 0; n < w.Star.NumNodes(); n++ {
		if n%2 == 0 {
			js = append(js, planar.NodeID(n))
		}
	}
	r, err := core.NewRegion(w, js)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CutRoads()) < 1024 {
		t.Fatalf("checkerboard perimeter only %d cuts", len(r.CutRoads()))
	}
	for trial := 0; trial < 10; trial++ {
		t1 := rng.Float64() * wl.Horizon
		t2 := t1 + rng.Float64()*(wl.Horizon-t1)
		if got, want := core.SnapshotCount(st, r, t1), core.SnapshotCountReference(st, freshRegion(t, r), t1); got != want {
			t.Fatalf("snapshot %v != reference %v", got, want)
		}
		if got, want := core.TransientCount(st, r, t1, t2), core.TransientCountReference(st, freshRegion(t, r), t1, t2); got != want {
			t.Fatalf("transient %v != reference %v", got, want)
		}
	}
}

// TestRecordBatchEquivalence: batch ingestion produces a store
// indistinguishable from per-event ingestion.
func TestRecordBatchEquivalence(t *testing.T) {
	fx := smallFixture(t, 427) // fed via Feed → RecordBatch path
	perEvent := core.NewStore(fx.w)
	for _, ev := range fx.wl.Events {
		var err error
		switch ev.Kind {
		case mobility.Enter:
			err = perEvent.RecordEnter(ev.At, ev.T)
		case mobility.Leave:
			err = perEvent.RecordLeave(ev.At, ev.T)
		case mobility.Move:
			err = perEvent.RecordMove(ev.Road, ev.From, ev.T)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if fx.st.NumEvents() != perEvent.NumEvents() {
		t.Fatalf("event counts differ: batch %d vs per-event %d", fx.st.NumEvents(), perEvent.NumEvents())
	}
	if fx.st.Clock() != perEvent.Clock() {
		t.Fatalf("clocks differ: %v vs %v", fx.st.Clock(), perEvent.Clock())
	}
	rng := rand.New(rand.NewSource(528))
	for trial := 0; trial < 20; trial++ {
		r := randomRegion(t, fx.w, rng)
		ts := rng.Float64() * fx.wl.Horizon
		if a, b := core.SnapshotCount(fx.st, r, ts), core.SnapshotCount(perEvent, freshRegion(t, r), ts); a != b {
			t.Fatalf("batch-fed snapshot %v != per-event %v", a, b)
		}
	}
}

// TestRecordBatchAtomic: a batch with an invalid tail leaves the store
// untouched.
func TestRecordBatchAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(429))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 4, NY: 4, Spacing: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	gw := w.Gateways[0]
	road := w.Star.Incident(gw)[0]
	good := []core.Event{
		core.EnterEvent(gw, 1),
		core.MoveEvent(road, gw, 2),
	}
	if err := st.RecordBatch(good); err != nil {
		t.Fatal(err)
	}
	bad := []core.Event{
		core.EnterEvent(gw, 3),
		core.MoveEvent(road, 99, 4), // not an endpoint
	}
	if err := st.RecordBatch(bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if st.NumEvents() != 2 {
		t.Errorf("failed batch partially applied: %d events", st.NumEvents())
	}
	if st.Clock() != 2 {
		t.Errorf("failed batch advanced clock to %v", st.Clock())
	}
	// Time regression on one direction is rejected.
	if err := st.RecordBatch([]core.Event{core.MoveEvent(road, gw, 1)}); err == nil {
		t.Error("batch preceding its direction's last crossing accepted")
	}
	// Disorder inside the batch is rejected too.
	disorder := []core.Event{core.EnterEvent(gw, 10), core.EnterEvent(gw, 9)}
	if err := st.RecordBatch(disorder); err == nil {
		t.Error("time-disordered batch accepted")
	}
	if err := st.RecordBatch(nil); err != nil {
		t.Errorf("empty batch errored: %v", err)
	}
}

// TestCutRoadsMemoized: the perimeter scan runs exactly once per Region
// regardless of how many counts read it.
func TestCutRoadsMemoized(t *testing.T) {
	fx := smallFixture(t, 431)
	rng := rand.New(rand.NewSource(532))
	r := randomRegion(t, fx.w, rng)
	if r.PerimeterScans() != 0 {
		t.Fatalf("fresh region already scanned %d times", r.PerimeterScans())
	}
	first := r.CutRoads()
	core.SnapshotCount(fx.st, r, 1000)
	core.TransientCount(fx.st, r, 1000, 2000)
	core.StaticCountSampled(fx.st, r, 1000, 2000, 8)
	second := r.CutRoads()
	if r.PerimeterScans() != 1 {
		t.Fatalf("perimeter scanned %d times, want 1", r.PerimeterScans())
	}
	if &first[0] != &second[0] || len(first) != len(second) {
		t.Error("CutRoads returned different slices across calls")
	}
	// A region compiled with its perimeter never scans.
	pre := core.NewCompiledRegion(fx.w, r.Junctions(), r.Perimeter(), len(first), r.PerimeterSensors())
	if !slices.Equal(pre.CutRoads(), first) || pre.PerimeterScans() != 0 {
		t.Error("compiled region scanned, or lost its cut roads")
	}
}
