package learned

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/roadnet"
)

// Model inference returns real floats, so the fast-path kernels must
// replicate the reference accumulation order exactly — these tests
// demand bit identity, not tolerance, across every registered trainer.

func fastpathFixture(t *testing.T, seed int64) (*roadnet.World, *mobility.Workload, *core.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := roadnet.GridCity(
		roadnet.GridOpts{NX: 9, NY: 9, Spacing: 50, Jitter: 0.25, RemoveFrac: 0.15, CurveFrac: 0.1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 80, Horizon: 15000, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 250, LeaveProb: 0.5, HotspotBias: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	if err := wl.Feed(st); err != nil {
		t.Fatal(err)
	}
	return w, wl, st
}

func randomLearnedRegion(t *testing.T, w *roadnet.World, rng *rand.Rand) *core.Region {
	t.Helper()
	b := w.Bounds()
	wf := 0.2 + rng.Float64()*0.5
	hf := 0.2 + rng.Float64()*0.5
	rect := geom.RectWH(
		b.Min.X+rng.Float64()*b.Width()*(1-wf),
		b.Min.Y+rng.Float64()*b.Height()*(1-hf),
		b.Width()*wf, b.Height()*hf)
	r, err := core.NewRegion(w, w.JunctionsIn(rect))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLearnedFastPathBitIdentical(t *testing.T) {
	w, wl, st := fastpathFixture(t, 61)
	for _, tr := range Registry() {
		ls := FromExact(st, tr)
		rng := rand.New(rand.NewSource(62))
		for trial := 0; trial < 15; trial++ {
			r := randomLearnedRegion(t, w, rng)
			fresh := func() *core.Region {
				nr, err := core.NewRegion(w, r.Junctions())
				if err != nil {
					t.Fatal(err)
				}
				return nr
			}
			ts := rng.Float64() * wl.Horizon
			t1 := rng.Float64() * wl.Horizon
			t2 := t1 + rng.Float64()*(wl.Horizon-t1)
			if fused, ref := core.SnapshotCount(ls, r, ts), core.SnapshotCountReference(ls, fresh(), ts); fused != ref {
				t.Fatalf("%s trial %d: fused snapshot %v != reference %v", tr.Name(), trial, fused, ref)
			}
			if fused, ref := core.TransientCount(ls, r, t1, t2), core.TransientCountReference(ls, fresh(), t1, t2); fused != ref {
				t.Fatalf("%s trial %d: fused transient %v != reference %v", tr.Name(), trial, fused, ref)
			}
			samples := 2 + rng.Intn(20)
			if fused, ref := core.StaticCountSampled(ls, r, t1, t2, samples), core.StaticCountSampledReference(ls, fresh(), t1, t2, samples); fused != ref {
				t.Fatalf("%s trial %d: fused static %v != reference %v", tr.Name(), trial, fused, ref)
			}
		}
	}
}

// TestStaticSampledPinnedToReference pins the sampled static count — the
// minimum of the fused CountCuts over the reference's probe instants —
// == its per-edge specification on the exact store and on every
// registered trainer, at the probe counts that matter: below the floor
// of 2 (raised on both sides), the floor, the engine's 16, and one that
// does not divide the interval evenly.
func TestStaticSampledPinnedToReference(t *testing.T) {
	w, wl, st := fastpathFixture(t, 63)
	stores := map[string]core.Counter{"core.Store": st}
	for _, tr := range Registry() {
		stores[tr.Name()] = FromExact(st, tr)
	}
	for name, c := range stores {
		rng := rand.New(rand.NewSource(64))
		for trial := 0; trial < 25; trial++ {
			r := randomLearnedRegion(t, w, rng)
			t1 := rng.Float64() * wl.Horizon
			t2 := t1 + rng.Float64()*(wl.Horizon-t1)
			for _, samples := range []int{1, 2, 16, 33} {
				fresh, err := core.NewRegion(w, r.Junctions())
				if err != nil {
					t.Fatal(err)
				}
				if fused, ref := core.StaticCountSampled(c, r, t1, t2, samples), core.StaticCountSampledReference(c, fresh, t1, t2, samples); fused != ref {
					t.Fatalf("%s trial %d samples %d: fused static %v != reference %v", name, trial, samples, fused, ref)
				}
			}
			if one, two := core.StaticCountSampled(c, r, t1, t2, 1), core.StaticCountSampled(c, r, t1, t2, 2); one != two {
				t.Fatalf("%s trial %d: samples=1 answered %v, samples=2 %v", name, trial, one, two)
			}
		}
	}
}
