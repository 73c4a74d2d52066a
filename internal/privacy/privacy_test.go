package privacy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleLaplaceMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	b := 2.5
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		x := SampleLaplace(b, rng)
		sum += x
		sumAbs += math.Abs(x)
	}
	if mean := sum / n; math.Abs(mean) > 0.05 {
		t.Errorf("laplace mean = %v, want ≈0", mean)
	}
	// E|X| = b.
	if meanAbs := sumAbs / n; math.Abs(meanAbs-b) > 0.05 {
		t.Errorf("laplace E|X| = %v, want %v", meanAbs, b)
	}
}

// zeroSource is a rand.Source whose Int63 always returns 0, which makes
// rand.Float64 return exactly 0 — the inverse-CDF edge case.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

// TestSampleLaplaceFiniteOnDegenerateRNG pins the inverse-CDF edge:
// rng.Float64() == 0 gives u = −0.5 and used to produce ±Inf noise,
// which a CountReleaser.Release then clamped to 0 or propagated as
// +Inf. Every draw and release must stay finite.
func TestSampleLaplaceFiniteOnDegenerateRNG(t *testing.T) {
	rng := rand.New(zeroSource{})
	x := SampleLaplace(2.5, rng)
	if math.IsInf(x, 0) || math.IsNaN(x) {
		t.Fatalf("degenerate draw produced %v", x)
	}
	acct, err := NewAccountant(10)
	if err != nil {
		t.Fatal(err)
	}
	cr := NewCountReleaser(Laplace{}, acct, 0)
	cr.rng = rand.New(zeroSource{})
	noisy, err := cr.Release(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(noisy, 0) || math.IsNaN(noisy) {
		t.Fatalf("release = %v, want finite", noisy)
	}
	if noisy < 0 {
		t.Fatalf("release = %v below the clamp", noisy)
	}
}

func TestTwoSidedGeometricMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	alpha := math.Exp(-0.5) // ε=0.5, Δ=1
	const n = 200000
	var sum float64
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		k := SampleTwoSidedGeometric(alpha, rng)
		sum += float64(k)
		counts[k]++
	}
	if mean := sum / n; math.Abs(mean) > 0.05 {
		t.Errorf("geometric mean = %v, want ≈0", mean)
	}
	// Symmetry: P(1) ≈ P(−1).
	p1, pm1 := float64(counts[1])/n, float64(counts[-1])/n
	if math.Abs(p1-pm1) > 0.01 {
		t.Errorf("asymmetric: P(1)=%v P(-1)=%v", p1, pm1)
	}
	// Ratio P(1)/P(0) ≈ α.
	if p0 := float64(counts[0]) / n; math.Abs(p1/p0-alpha) > 0.05 {
		t.Errorf("P(1)/P(0) = %v, want %v", p1/p0, alpha)
	}
}

func TestMechanismsPerturb(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []Mechanism{Laplace{}, Geometric{}} {
		var sumDev float64
		const n = 50000
		for i := 0; i < n; i++ {
			sumDev += m.Perturb(100, 1, 1.0, rng) - 100
		}
		if mean := sumDev / n; math.Abs(mean) > 0.1 {
			t.Errorf("%s: biased noise, mean dev %v", m.Name(), mean)
		}
	}
	if (Laplace{}).Name() != "laplace" || (Geometric{}).Name() != "geometric" {
		t.Error("mechanism names")
	}
}

func TestAccountantBudget(t *testing.T) {
	a, err := NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.4); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.4); err != nil {
		t.Fatal(err)
	}
	if got := a.Spent(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("spent = %v", got)
	}
	if got := a.Remaining(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("remaining = %v", got)
	}
	if err := a.Spend(0.3); err == nil {
		t.Error("over-budget spend accepted")
	}
	if err := a.Spend(0.2); err != nil {
		t.Errorf("exact remaining spend rejected: %v", err)
	}
	for _, eps := range []float64{-1, 0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := a.Spend(eps); err == nil {
			t.Errorf("epsilon %v accepted", eps)
		}
		if _, err := NewAccountant(eps); err == nil {
			t.Errorf("budget %v accepted", eps)
		}
	}
}

func TestCountReleaser(t *testing.T) {
	a, err := NewAccountant(10)
	if err != nil {
		t.Fatal(err)
	}
	cr := NewCountReleaser(Laplace{}, a, 7)
	var sum float64
	const n = 100
	for i := 0; i < n; i++ {
		v, err := cr.Release(50, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0 {
			t.Fatal("negative release")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-50) > 15 {
		t.Errorf("release mean %v far from 50", mean)
	}
	if math.Abs(a.Spent()-5) > 1e-9 {
		t.Errorf("spent = %v, want 5", a.Spent())
	}
	// Exhaust the budget.
	if _, err := cr.Release(50, 6); err == nil {
		t.Error("over-budget release accepted")
	}
}

func TestReleaseClampsNegative(t *testing.T) {
	a, _ := NewAccountant(1000)
	cr := NewCountReleaser(Laplace{}, a, 9)
	for i := 0; i < 2000; i++ {
		v, err := cr.Release(0, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0 {
			t.Fatal("negative release leaked")
		}
	}
}

func TestLaplaceScaleProperty(t *testing.T) {
	// Larger ε ⇒ smaller average noise, for any sensitivity.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var lo, hi float64
		for i := 0; i < 3000; i++ {
			lo += math.Abs(Laplace{}.Perturb(0, 1, 0.1, rng))
			hi += math.Abs(Laplace{}.Perturb(0, 1, 10, rng))
		}
		return hi < lo
	}, &quick.Config{MaxCount: 10})
	if err != nil {
		t.Error(err)
	}
}
