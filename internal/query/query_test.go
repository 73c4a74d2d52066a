package query

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/roadnet"
	"repro/internal/sampled"
	"repro/internal/sampling"
)

type fixture struct {
	w  *roadnet.World
	wl *mobility.Workload
	st *core.Store
	or *mobility.Oracle
}

func newFixture(t testing.TB, seed int64) *fixture {
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
	return &fixture{w: w, wl: wl, st: st, or: mobility.NewOracle(wl)}
}

func (fx *fixture) sampledEngine(t testing.TB, m int, seed int64) *Engine {
	t.Helper()
	cands := sampling.CandidatesFromDual(fx.w.Dual.InteriorNodes(), fx.w.Dual.G.Point)
	sel, err := sampling.Uniform{}.Sample(cands, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := sampled.Build(fx.w, sel, sampled.Options{Connect: sampled.Triangulation})
	if err != nil {
		t.Fatal(err)
	}
	return NewSampledEngine(sg, fx.st)
}

func centerRect(w *roadnet.World, frac float64) geom.Rect {
	b := w.Bounds()
	cw, ch := b.Width()*frac, b.Height()*frac
	c := b.Center()
	return geom.RectWH(c.X-cw/2, c.Y-ch/2, cw, ch)
}

func TestUnsampledEngineMatchesOracle(t *testing.T) {
	fx := newFixture(t, 1)
	e := NewEngine(fx.w, fx.st)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		rect := centerRect(fx.w, 0.2+rng.Float64()*0.5)
		ts := rng.Float64() * fx.wl.Horizon
		resp, err := e.Query(Request{Rect: rect, T1: ts, Kind: Snapshot})
		if err != nil {
			t.Fatal(err)
		}
		r, _ := core.NewRegion(fx.w, fx.w.JunctionsIn(rect))
		want := float64(fx.or.InsideAt(r.Contains, ts))
		if resp.Count != want {
			t.Fatalf("snapshot = %v, oracle = %v", resp.Count, want)
		}
		if resp.Missed {
			t.Error("unsampled query missed")
		}
		if resp.ExactRegionSize != r.Size() {
			t.Error("exact region size wrong")
		}
	}
}

func TestTransientAndStaticKinds(t *testing.T) {
	fx := newFixture(t, 3)
	e := NewEngine(fx.w, fx.st)
	rect := centerRect(fx.w, 0.5)
	t1, t2 := fx.wl.Horizon*0.3, fx.wl.Horizon*0.7
	r, _ := core.NewRegion(fx.w, fx.w.JunctionsIn(rect))

	tr, err := e.Query(Request{Rect: rect, T1: t1, T2: t2, Kind: Transient})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(fx.or.TransientCount(r.Contains, t1, t2)); tr.Count != want {
		t.Errorf("transient = %v, want %v", tr.Count, want)
	}

	st, err := e.Query(Request{Rect: rect, T1: t1, T2: t2, Kind: Static})
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(fx.or.StaticCount(r.Contains, t1, t2))
	if st.Count < truth {
		t.Errorf("static = %v below truth %v", st.Count, truth)
	}
}

// TestQuerySinglePerimeterScan asserts the memoization contract: one
// Query performs exactly one perimeter scan even though the count, the
// EdgesAccessed accounting and the cost simulation all read CutRoads.
// Region.PerimeterScans is the call-counting hook.
func TestQuerySinglePerimeterScan(t *testing.T) {
	fx := newFixture(t, 11)
	e := NewEngine(fx.w, fx.st)
	rng := rand.New(rand.NewSource(12))
	for _, kind := range []Kind{Snapshot, Static, Transient} {
		for trial := 0; trial < 5; trial++ {
			rect := centerRect(fx.w, 0.2+rng.Float64()*0.5)
			resp, err := e.Query(Request{
				Rect: rect, T1: fx.wl.Horizon * 0.3, T2: fx.wl.Horizon * 0.7, Kind: kind,
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := resp.Region.PerimeterScans(); n != 1 {
				t.Fatalf("%v query scanned the perimeter %d times, want 1", kind, n)
			}
			if resp.EdgesAccessed != len(resp.Region.CutRoads()) {
				t.Fatalf("%v query EdgesAccessed %d != perimeter %d", kind, resp.EdgesAccessed, len(resp.Region.CutRoads()))
			}
		}
	}
	// Sampled engines install the perimeter via SetCutRoads: zero scans.
	se := fx.sampledEngine(t, 40, 13)
	resp, err := se.Query(Request{Rect: centerRect(fx.w, 0.6), T1: fx.wl.Horizon / 2, Kind: Snapshot, Bound: sampled.Upper})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Missed {
		if n := resp.Region.PerimeterScans(); n != 0 {
			t.Fatalf("sampled query scanned the perimeter %d times, want 0 (SetCutRoads)", n)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	fx := newFixture(t, 5)
	e := NewEngine(fx.w, fx.st)
	if _, err := e.Query(Request{Rect: geom.Rect{Min: geom.Pt(1, 1), Max: geom.Pt(0, 0)}}); err == nil {
		t.Error("empty rect accepted")
	}
	if _, err := e.Query(Request{Rect: centerRect(fx.w, 0.3), T1: 10, T2: 5, Kind: Transient}); err == nil {
		t.Error("reversed interval accepted")
	}
}

func TestSampledEngineBracketsExact(t *testing.T) {
	fx := newFixture(t, 7)
	exact := NewEngine(fx.w, fx.st)
	se := fx.sampledEngine(t, 40, 8)
	rng := rand.New(rand.NewSource(9))
	misses := 0
	for trial := 0; trial < 30; trial++ {
		rect := centerRect(fx.w, 0.3+rng.Float64()*0.4)
		ts := rng.Float64() * fx.wl.Horizon
		ex, err := exact.Query(Request{Rect: rect, T1: ts, Kind: Snapshot})
		if err != nil {
			t.Fatal(err)
		}
		lo, err := se.Query(Request{Rect: rect, T1: ts, Kind: Snapshot, Bound: sampled.Lower})
		if err != nil {
			t.Fatal(err)
		}
		hi, err := se.Query(Request{Rect: rect, T1: ts, Kind: Snapshot, Bound: sampled.Upper})
		if err != nil {
			t.Fatal(err)
		}
		if lo.Missed {
			misses++
		} else if lo.Count > ex.Count {
			t.Fatalf("lower %v > exact %v", lo.Count, ex.Count)
		}
		if hi.Count < ex.Count {
			t.Fatalf("upper %v < exact %v", hi.Count, ex.Count)
		}
	}
	if misses == 30 {
		t.Error("all queries missed")
	}
}

func TestSampledCostBelowUnsampled(t *testing.T) {
	fx := newFixture(t, 11)
	exact := NewEngine(fx.w, fx.st)
	se := fx.sampledEngine(t, 30, 12)
	rect := centerRect(fx.w, 0.6)
	ts := fx.wl.Horizon / 2
	ex, err := exact.Query(Request{Rect: rect, T1: ts, Kind: Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := se.Query(Request{Rect: rect, T1: ts, Kind: Snapshot, Bound: sampled.Lower})
	if err != nil {
		t.Fatal(err)
	}
	if lo.Missed {
		t.Skip("query missed with this seed")
	}
	if ex.Net.NodesAccessed == 0 {
		t.Fatal("unsampled query accessed no nodes")
	}
	if lo.Net.NodesAccessed >= ex.Net.NodesAccessed {
		t.Errorf("sampled accessed %d nodes, unsampled %d — sampling should reduce access",
			lo.Net.NodesAccessed, ex.Net.NodesAccessed)
	}
	if lo.EdgesAccessed == 0 {
		t.Error("no perimeter edges accessed")
	}
}

func TestKindString(t *testing.T) {
	if Snapshot.String() != "snapshot" || Static.String() != "static" || Transient.String() != "transient" {
		t.Error("Kind.String wrong")
	}
}
