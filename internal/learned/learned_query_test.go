package learned_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/learned"
	"repro/internal/mobility"
	"repro/internal/roadnet"
	"repro/internal/sampled"
	"repro/internal/sampling"
)

// The learned path of Figs 14c/d, below the query engine: the counting
// theorems in core run on a learned.Store exactly as the figures run
// them, and the answers stay close to the exact store's.

// queryFixture is a 12×12 grid city with its workload in an exact store.
func queryFixture(t *testing.T, seed int64) (*roadnet.World, *mobility.Workload, *core.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := roadnet.GridCity(
		roadnet.GridOpts{NX: 12, NY: 12, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 150, Horizon: 30000, TripsPerObject: 5,
		MeanSpeed: 10, MeanPause: 400, LeaveProb: 0.5, HotspotBias: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(w)
	if err := wl.Feed(st); err != nil {
		t.Fatal(err)
	}
	return w, wl, st
}

func centerRect(w *roadnet.World, frac float64) geom.Rect {
	b := w.Bounds()
	cw, ch := b.Width()*frac, b.Height()*frac
	c := b.Center()
	return geom.RectWH(c.X-cw/2, c.Y-ch/2, cw, ch)
}

// figProbes is the probe count Figs 14c/d give StaticCountSampled.
const figProbes = 16

// kindDeviations returns |exact − learned| for a snapshot at t1, the
// transient flow over (t1, t2] and the probed static count over
// [t1, t2] of one region.
func kindDeviations(exact *core.Store, ls *learned.Store, r *core.Region, t1, t2 float64) [3]float64 {
	return [3]float64{
		math.Abs(core.SnapshotCount(exact, r, t1) - core.SnapshotCount(ls, r, t1)),
		math.Abs(core.TransientCount(exact, r, t1, t2) - core.TransientCount(ls, r, t1, t2)),
		math.Abs(core.StaticCountSampled(exact, r, t1, t2, figProbes) -
			core.StaticCountSampled(ls, r, t1, t2, figProbes)),
	}
}

var kindNames = [3]string{"snapshot", "transient", "static"}

// TestLearnedSampledEngine exercises the full stack the paper proposes:
// sampled graph + learned models + perimeter counts. Every kind's
// learned count over a lower-approximated region stays within 15 of the
// exact store's.
func TestLearnedSampledEngine(t *testing.T) {
	w, wl, st := queryFixture(t, 21)
	ls := learned.FromExact(st, learned.PiecewiseTrainer{Segments: 8})
	cands := sampling.CandidatesFromDual(w.Dual.InteriorNodes(), w.Dual.G.Point)
	sel, err := (sampling.QuadTreeSampler{Randomized: true}).Sample(cands, 50, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := sampled.Build(w, sel, sampled.Options{Connect: sampled.Triangulation})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	answered := 0
	for trial := 0; trial < 25; trial++ {
		rect := centerRect(w, 0.3+rng.Float64()*0.4)
		t1 := 1000 + rng.Float64()*(wl.Horizon-2000)
		t2 := t1 + rng.Float64()*(wl.Horizon-1000-t1)
		region, _, missed, err := sg.ApproximateRect(rect, sampled.Lower)
		if err != nil {
			t.Fatal(err)
		}
		if missed {
			continue
		}
		answered++
		for k, d := range kindDeviations(st, ls, region, t1, t2) {
			if d > 15 {
				t.Errorf("trial %d: learned sampled %s count off the exact one by %v", trial, kindNames[k], d)
			}
		}
	}
	if answered == 0 {
		t.Error("every query missed")
	}
}

// TestLearnedEngineCloseToExact: over exact regions of the full sensing
// graph, every kind's mean learned deviation from the exact store stays
// at most 8.
func TestLearnedEngineCloseToExact(t *testing.T) {
	w, wl, st := queryFixture(t, 13)
	ls := learned.FromExact(st, learned.PiecewiseTrainer{Segments: 8})
	rng := rand.New(rand.NewSource(14))
	var total [3]float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		rect := centerRect(w, 0.3+rng.Float64()*0.4)
		t1 := 1000 + rng.Float64()*(wl.Horizon-2000)
		t2 := t1 + rng.Float64()*(wl.Horizon-1000-t1)
		region, err := core.NewRegion(w, w.JunctionsIn(rect))
		if err != nil {
			t.Fatal(err)
		}
		for k, d := range kindDeviations(st, ls, region, t1, t2) {
			total[k] += d
		}
	}
	for k, sum := range total {
		if avg := sum / trials; avg > 8 {
			t.Errorf("mean learned %s deviation %v too high", kindNames[k], avg)
		}
	}
}
