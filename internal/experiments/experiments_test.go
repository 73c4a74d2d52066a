package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/query"
)

// sharedEnv is built once for the whole test binary (environment
// construction feeds a full workload).
var sharedEnv *Env

func env(t *testing.T) *Env {
	t.Helper()
	if sharedEnv == nil {
		e, err := NewEnv(QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharedEnv = e
	}
	return sharedEnv
}

func TestNewEnv(t *testing.T) {
	e := env(t)
	if e.Store.NumEvents() == 0 {
		t.Fatal("no events ingested")
	}
	if len(e.Candidates) == 0 {
		t.Fatal("no sensor candidates")
	}
	if e.SensorBudget(100) != len(e.Candidates) {
		t.Error("100% budget should be all candidates")
	}
	if e.SensorBudget(0.0001) < 3 {
		t.Error("budget floor violated")
	}
}

func TestRandomQueryShape(t *testing.T) {
	e := env(t)
	rng := e.repRNG(1)
	b := e.W.Bounds()
	for i := 0; i < 50; i++ {
		rect, t1, t2 := e.RandomQuery(1.08, rng)
		if rect.Empty() {
			t.Fatal("empty query rect")
		}
		if t2 <= t1 || t1 < 0 || t2 > e.WL.Horizon {
			t.Fatalf("bad window [%v,%v]", t1, t2)
		}
		got := rect.Area() / b.Area() * 100
		if got > 1.2*1.08+0.1 {
			t.Fatalf("query area %v%% exceeds requested 1.08%%", got)
		}
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(10, 8); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("RelativeError(10,8) = %v", got)
	}
	if got := RelativeError(0, 3); got != 3 {
		t.Errorf("zero-truth error = %v, want |0-3|/1", got)
	}
	if got := RelativeError(-4, -4); got != 0 {
		t.Errorf("exact negative = %v", got)
	}
}

func TestStatQuantiles(t *testing.T) {
	s := NewStat([]float64{1, 2, 3, 4, 5})
	if s.Median != 3 || s.P25 != 2 || s.P75 != 4 || s.N != 5 {
		t.Errorf("Stat = %+v", s)
	}
	if !math.IsNaN(NewStat(nil).Median) {
		t.Error("empty stat should be NaN")
	}
}

func TestSweepCellAndFig11a(t *testing.T) {
	e := env(t)
	fig, err := e.Fig11a()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 7 { // 5 samplers + submodular + baseline
		t.Fatalf("series = %d, want 7", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != len(GraphSizes) {
			t.Fatalf("%s: %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if !math.IsNaN(p.Median) && (p.Median < 0 || p.Median > 1.5) {
				t.Errorf("%s@%v: error %v out of plausible range", s.Name, p.X, p.Median)
			}
		}
	}
	// The paper's shape: large sampled graphs beat tiny ones.
	for _, s := range fig.Series {
		first, last := s.Points[0].Median, s.Points[len(s.Points)-1].Median
		if !math.IsNaN(first) && !math.IsNaN(last) && last > first+0.2 {
			t.Errorf("%s: error grew with graph size (%.3f → %.3f)", s.Name, first, last)
		}
	}
	var buf bytes.Buffer
	if err := Render(&buf, fig); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fig11a") || !strings.Contains(out, "uniform") {
		t.Error("render missing content")
	}
}

func TestFig11cShapes(t *testing.T) {
	e := env(t)
	fig, err := e.Fig11c()
	if err != nil {
		t.Fatal(err)
	}
	bySeries := map[string][]Point{}
	for _, s := range fig.Series {
		bySeries[s.Name] = s.Points
	}
	uns := bySeries["unsampled"]
	if len(uns) == 0 {
		t.Fatal("no unsampled series")
	}
	// Unsampled access grows with query size (paper: linear).
	if uns[len(uns)-1].Median <= uns[0].Median {
		t.Errorf("unsampled access did not grow: %v → %v",
			uns[0].Median, uns[len(uns)-1].Median)
	}
	// The 6.4% sampled graph accesses far fewer nodes at large sizes.
	smp := bySeries["sampled-6.4%"]
	if smp[len(smp)-1].Median >= uns[len(uns)-1].Median {
		t.Errorf("sampled access %v not below unsampled %v at the largest query",
			smp[len(smp)-1].Median, uns[len(uns)-1].Median)
	}
}

func TestFig11eCDF(t *testing.T) {
	e := env(t)
	fig, err := e.Fig11e()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) < 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) < 2 {
			t.Fatalf("%s: too few CDF points", s.Name)
		}
		// CDF is monotone in both axes.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].X < s.Points[i-1].X || s.Points[i].Median < s.Points[i-1].Median {
				t.Fatalf("%s: CDF not monotone", s.Name)
			}
		}
		if last := s.Points[len(s.Points)-1].Median; last != 1 {
			t.Errorf("%s: CDF ends at %v", s.Name, last)
		}
	}
}

func TestFig14Sweeps(t *testing.T) {
	e := env(t)
	a, err := e.Fig14a()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != 5 {
		t.Fatalf("fig14a series = %d", len(a.Series))
	}
	b, err := e.Fig14b()
	if err != nil {
		t.Fatal(err)
	}
	// More neighbours must access at least as many edges: compare k=2
	// against k=8 at the largest query size.
	edge := func(name string) float64 {
		for _, s := range b.Series {
			if s.Name == name {
				return s.Points[len(s.Points)-1].Median
			}
		}
		return math.NaN()
	}
	if e2, e8 := edge("knn-k2"), edge("knn-k8"); !math.IsNaN(e2) && !math.IsNaN(e8) && e8 < e2*0.5 {
		t.Errorf("k=8 accesses far fewer edges (%v) than k=2 (%v)", e8, e2)
	}
}

func TestFig14cdModelError(t *testing.T) {
	e := env(t)
	c, d, err := e.Fig14cd()
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []Figure{c, d} {
		for _, s := range fig.Series {
			for _, p := range s.Points {
				if !math.IsNaN(p.Median) && p.Median > 2 {
					t.Errorf("%s/%s@%v: model error %v implausible",
						fig.ID, s.Name, p.X, p.Median)
				}
			}
		}
	}
}

func TestHeadline(t *testing.T) {
	e := env(t)
	h, err := e.RunHeadline()
	if err != nil {
		t.Fatal(err)
	}
	if h.RelError < 0 || h.RelError > 1 {
		t.Errorf("headline error = %v", h.RelError)
	}
	if h.NodeAccessReduction <= 0 {
		t.Errorf("node access reduction = %v, want positive", h.NodeAccessReduction)
	}
	if h.StorageReduction <= 0.5 {
		t.Errorf("storage reduction = %v, want large", h.StorageReduction)
	}
	if !strings.Contains(h.String(), "relErr") {
		t.Error("headline string")
	}
}

func TestAblations(t *testing.T) {
	e := env(t)
	g, err := e.AblationGreedy()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Series) != 2 {
		t.Fatalf("greedy ablation series = %d", len(g.Series))
	}
	bl, err := e.AblationBaselineScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(bl.Series) != 2 {
		t.Fatalf("baseline ablation series = %d", len(bl.Series))
	}
	rb, err := e.AblationRollingBuffer()
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Series) == 0 {
		t.Fatal("rolling ablation empty")
	}
}

func TestCostModel(t *testing.T) {
	e := env(t)
	rep, err := e.RunCostModel()
	if err != nil {
		t.Fatal(err)
	}
	if rep.EllG <= 1 {
		t.Errorf("ℓ_G = %v implausible", rep.EllG)
	}
	// Small-world sanity: ℓ_G within a small factor of log₂N.
	if rep.EllG > 4*rep.LogN {
		t.Errorf("ℓ_G %v far above log₂N %v", rep.EllG, rep.LogN)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rep.Rows {
		// The prediction is an upper-bound-flavoured O(1) model: the
		// measured/predicted ratio must be bounded and positive.
		if r.Ratio <= 0 || r.Ratio > 3 {
			t.Errorf("m=%d k=%d area=%v: ratio %v outside (0,3]", r.M, r.K, r.AreaPct, r.Ratio)
		}
	}
	// Measured node count grows with query area for fixed (m, k).
	byMK := map[[2]int]map[float64]float64{}
	for _, r := range rep.Rows {
		k := [2]int{r.M, r.K}
		if byMK[k] == nil {
			byMK[k] = map[float64]float64{}
		}
		byMK[k][r.AreaPct] = r.MeasuredNodes
	}
	for k, areas := range byMK {
		if small, ok := areas[4.32]; ok {
			if big, ok := areas[17.28]; ok && big < small {
				t.Errorf("m=%d k=%d: nodes fell with area (%v → %v)", k[0], k[1], small, big)
			}
		}
	}
}

func TestCountOnKinds(t *testing.T) {
	e := env(t)
	rng := e.repRNG(7)
	rect, t1, t2 := e.RandomQuery(10, rng)
	r, err := e.RegionOf(rect)
	if err != nil {
		t.Fatal(err)
	}
	if r.Empty() {
		t.Skip("empty probe region")
	}
	snap := e.countOn(r, query.Snapshot, t1, t2)
	static := e.countOn(r, query.Static, t1, t2)
	if static > snap {
		t.Errorf("static %v above snapshot-at-t1 %v", static, snap)
	}
}
