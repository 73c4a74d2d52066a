package euler

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mobility"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

func fixture(t *testing.T, seed int64) (*roadnet.World, *mobility.Workload, *mobility.Oracle) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := roadnet.GridCity(
		roadnet.GridOpts{NX: 8, NY: 8, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 60, Horizon: 10000, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 200, LeaveProb: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return w, wl, mobility.NewOracle(wl)
}

func TestHistogramMatchesOracleAtBucketBoundaries(t *testing.T) {
	w, wl, or := fixture(t, 1)
	bucket := 50.0
	h, err := BuildHistogram(wl, bucket)
	if err != nil {
		t.Fatal(err)
	}
	// At bucket starts, histogram occupancy per junction must equal the
	// oracle's occupancy at an instant just before the bucket start
	// (events inside the bucket are attributed to the whole bucket).
	for b := 1; b < 40; b += 3 {
		tb := float64(b) * bucket
		for j := 0; j < w.Star.NumNodes(); j += 5 {
			jn := planar.NodeID(j)
			got := h.occupancyAt(jn, tb)
			want := or.InsideAt(func(x planar.NodeID) bool { return x == jn }, tb-1e-9)
			if got != want {
				t.Fatalf("bucket %d junction %d: histogram %d, oracle %d", b, j, got, want)
			}
		}
	}
}

func TestHistogramValidation(t *testing.T) {
	_, wl, _ := fixture(t, 2)
	if _, err := BuildHistogram(wl, 0); err == nil {
		t.Error("zero bucket accepted")
	}
	if _, err := BuildHistogram(wl, -5); err == nil {
		t.Error("negative bucket accepted")
	}
}

func TestBaselineFullSamplingIsAccurate(t *testing.T) {
	// Sampling every face removes the sampling error: counts must match
	// the oracle at bucket resolution.
	w, wl, or := fixture(t, 3)
	h, err := BuildHistogram(wl, 25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b, err := NewBaseline(h, w.Star.NumNodes(), true, rng)
	if err != nil {
		t.Fatal(err)
	}
	junctions := w.JunctionsIn(w.Bounds())
	for _, tb := range []float64{1000, 3000, 7000} {
		got, miss := b.SnapshotCount(junctions, tb)
		if miss {
			t.Fatal("full sampling missed")
		}
		want := float64(or.InsideAt(func(planar.NodeID) bool { return true }, tb-1e-9))
		// Bucket resolution allows a small deviation.
		if math.Abs(got-want) > float64(wl.Objects)*0.25 {
			t.Errorf("t=%v: baseline %v, oracle %v", tb, got, want)
		}
	}
}

func TestBaselineScalingBehaviour(t *testing.T) {
	w, wl, _ := fixture(t, 5)
	h, err := BuildHistogram(wl, 50)
	if err != nil {
		t.Fatal(err)
	}
	junctions := w.JunctionsIn(w.Bounds())
	// Unscaled estimates are lower bounds of scaled ones.
	rngA := rand.New(rand.NewSource(6))
	scaled, err := NewBaseline(h, 20, true, rngA)
	if err != nil {
		t.Fatal(err)
	}
	rngB := rand.New(rand.NewSource(6))
	unscaled, err := NewBaseline(h, 20, false, rngB)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []float64{2000, 5000, 8000} {
		s, sm := scaled.SnapshotCount(junctions, tb)
		u, um := unscaled.SnapshotCount(junctions, tb)
		if sm != um {
			t.Fatal("same sample, different miss state")
		}
		if sm {
			continue
		}
		if u > s+1e-9 {
			t.Errorf("unscaled %v exceeds scaled %v", u, s)
		}
	}
}

func TestBaselineMiss(t *testing.T) {
	_, wl, _ := fixture(t, 7)
	h, err := BuildHistogram(wl, 50)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	b, err := NewBaseline(h, 3, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Query a region disjoint from the sample.
	var region []planar.NodeID
	sampled := make(map[planar.NodeID]bool)
	for _, s := range b.Sampled {
		sampled[s] = true
	}
	for j := 0; j < 10; j++ {
		if !sampled[planar.NodeID(j)] {
			region = append(region, planar.NodeID(j))
		}
	}
	if len(region) == 0 {
		t.Skip("sample covered the probe region")
	}
	if _, miss := b.SnapshotCount(region, 100); !miss {
		t.Error("disjoint region did not miss")
	}
	if _, miss := b.TransientCount(region, 100, 200); !miss {
		t.Error("transient on disjoint region did not miss")
	}
	if _, miss := b.StaticCount(region, 100, 200); !miss {
		t.Error("static on disjoint region did not miss")
	}
}

func TestBaselineTransientConsistency(t *testing.T) {
	w, wl, _ := fixture(t, 9)
	h, err := BuildHistogram(wl, 25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	b, err := NewBaseline(h, w.Star.NumNodes(), true, rng)
	if err != nil {
		t.Fatal(err)
	}
	junctions := w.JunctionsIn(w.Bounds())
	tr, _ := b.TransientCount(junctions, 1000, 8000)
	s1, _ := b.SnapshotCount(junctions, 1000)
	s2, _ := b.SnapshotCount(junctions, 8000)
	if math.Abs(tr-(s2-s1)) > 1e-9 {
		t.Errorf("transient %v != snapshot delta %v", tr, s2-s1)
	}
}

func TestBaselineStaticIsMinimum(t *testing.T) {
	w, wl, _ := fixture(t, 11)
	h, err := BuildHistogram(wl, 25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	b, err := NewBaseline(h, w.Star.NumNodes(), true, rng)
	if err != nil {
		t.Fatal(err)
	}
	junctions := w.JunctionsIn(w.Bounds())
	st, _ := b.StaticCount(junctions, 2000, 6000)
	for _, tb := range []float64{2000, 3000, 4500, 6000} {
		s, _ := b.SnapshotCount(junctions, tb)
		if st > s+1e-9 {
			t.Errorf("static %v exceeds snapshot %v at %v", st, s, tb)
		}
	}
}

func TestBaselineValidationAndStorage(t *testing.T) {
	w, wl, _ := fixture(t, 13)
	h, err := BuildHistogram(wl, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	if _, err := NewBaseline(h, 0, true, rng); err == nil {
		t.Error("zero sample size accepted")
	}
	b, err := NewBaseline(h, 10, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sampled) != 10 {
		t.Errorf("sampled = %d", len(b.Sampled))
	}
	if b.StorageBytes() >= h.StorageBytes(nil) {
		t.Error("sampled storage not below full storage")
	}
	if got := h.StorageBytes(nil); got != w.Star.NumNodes()*h.buckets*8 {
		t.Errorf("full storage = %d", got)
	}
}
