package privacy

import (
	"math"
	"math/rand"
	"testing"
)

func TestTwoSidedGeometricMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const eps = 0.5 // Δ=1
	alpha := math.Exp(-eps)
	const n = 200000
	var sum float64
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		k := SampleTwoSidedGeometric(eps, rng)
		sum += k
		counts[int(k)]++
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

// TestMechanismsPerturb: the one release mechanism is unbiased away from
// the clamp and perturbs an integer count into an integer — also at an ε
// so small that exp(−ε) rounds to 1, where a sampler dividing by ln α
// released the exact count.
func TestMechanismsPerturb(t *testing.T) {
	const n = 50000
	a, err := NewAccountant(n)
	if err != nil {
		t.Fatal(err)
	}
	cr := NewCountReleaser(a, 3)
	var sumDev float64
	for i := 0; i < n; i++ {
		v, err := cr.Release(100, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v != math.Trunc(v) {
			t.Fatalf("release %v is not an integer", v)
		}
		sumDev += v - 100
	}
	if mean := sumDev / n; math.Abs(mean) > 0.1 {
		t.Errorf("biased noise, mean dev %v", mean)
	}
	moved := 0
	for i := 0; i < 10; i++ {
		v, err := cr.Release(100, 1e-17)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(v, 0) || v != math.Trunc(v) {
			t.Fatalf("ε = 1e-17: release %v is not a finite integer", v)
		}
		if v != 100 {
			moved++
		}
	}
	if moved < 5 {
		t.Errorf("ε = 1e-17: %d of 10 releases moved; the noise should be astronomically wide", moved)
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
	cr := NewCountReleaser(a, 7)
	var sum float64
	const n = 100
	for i := 0; i < n; i++ {
		v, err := cr.Release(50, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0 || v != math.Trunc(v) {
			t.Fatalf("release %v: want a non-negative integer", v)
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
	cr := NewCountReleaser(a, 9)
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
