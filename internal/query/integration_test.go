package query

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mobility"
	"repro/internal/roadnet"
	"repro/internal/sampled"
	"repro/internal/submodular"
)

// TestSubmodularEngineEndToEnd drives the query-adaptive placement
// through the engine on its own training distribution.
func TestSubmodularEngineEndToEnd(t *testing.T) {
	fx := newFixture(t, 31)
	rng := rand.New(rand.NewSource(32))
	var hist []*core.Region
	var rects []Request
	for i := 0; i < 15; i++ {
		rect := centerRect(fx.w, 0.2+rng.Float64()*0.3)
		r, err := core.NewRegion(fx.w, fx.w.JunctionsIn(rect))
		if err != nil {
			t.Fatal(err)
		}
		if r.Empty() {
			continue
		}
		hist = append(hist, r)
		rects = append(rects, Request{Rect: rect, T1: fx.wl.Horizon / 2, Kind: Snapshot, Bound: sampled.Lower})
	}
	res, err := submodular.SelectForQueries(fx.w, hist, 120)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := sampled.BuildFromDualEdges(fx.w, res.DualEdges)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewSampledEngine(sg, fx.st)
	exact := NewEngine(fx.w, fx.st)
	hits, exactMatches := 0, 0
	for _, req := range rects {
		resp, err := eng.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Missed {
			continue
		}
		hits++
		ex, err := exact.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Count == ex.Count {
			exactMatches++
		}
		if resp.Count > ex.Count {
			t.Errorf("lower-bound %v above exact %v", resp.Count, ex.Count)
		}
	}
	if hits == 0 {
		t.Fatal("trained regions all missed")
	}
	if exactMatches == 0 {
		t.Error("no trained region answered exactly; atom boundaries look wrong")
	}
}

// TestEngineOnRadialAndRandomCities runs the full pipeline on the two
// non-grid city generators.
func TestEngineOnRadialAndRandomCities(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	worlds := make(map[string]*roadnet.World)
	if w, err := roadnet.RadialCity(roadnet.RadialOpts{
		Rings: 6, Spokes: 14, RingGap: 60, SkipFrac: 0.15}, rng); err != nil {
		t.Fatal(err)
	} else {
		worlds["radial"] = w
	}
	if w, err := roadnet.RandomCity(roadnet.RandomOpts{
		N: 150, Size: 800, RemoveFrac: 0.25}, rng); err != nil {
		t.Fatal(err)
	} else {
		worlds["random"] = w
	}
	for name, w := range worlds {
		wl, err := mobility.Generate(w, mobility.Opts{
			Objects: 80, Horizon: 15000, TripsPerObject: 4,
			MeanSpeed: 10, MeanPause: 300, LeaveProb: 0.5}, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := core.NewStore(w)
		if err := wl.Feed(st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		or := mobility.NewOracle(wl)
		eng := NewEngine(w, st)
		for trial := 0; trial < 10; trial++ {
			rect := centerRect(w, 0.3+rng.Float64()*0.4)
			ts := rng.Float64() * wl.Horizon
			resp, err := eng.Query(Request{Rect: rect, T1: ts, Kind: Snapshot})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r, err := core.NewRegion(w, w.JunctionsIn(rect))
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(or.InsideAt(r.Contains, ts)); resp.Count != want {
				t.Fatalf("%s: count %v != oracle %v — theorems must hold on every planar city",
					name, resp.Count, want)
			}
		}
	}
}
