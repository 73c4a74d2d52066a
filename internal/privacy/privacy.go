// Package privacy adds differential-privacy guarantees on top of the
// counting framework — the extension the paper points to (§4.1, citing
// Ghosh et al., "Differentially Private Range Counting in Planar Graphs
// for Spatial Sensing", INFOCOM 2020). Counts released to the query
// server are perturbed with calibrated noise, and a budget accountant
// enforces a total ε across queries.
//
// The aggregate range count has sensitivity 1 with respect to one
// object's presence (adding or removing one object changes any region
// count by at most 1), so a query answered with Laplace(1/ε) noise is
// ε-differentially private; the discrete geometric mechanism is provided
// for integer releases.
package privacy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Mechanism perturbs a true value into a private release.
type Mechanism interface {
	// Name identifies the mechanism.
	Name() string
	// Perturb returns value + noise calibrated to sensitivity/epsilon.
	Perturb(value, sensitivity, epsilon float64, rng *rand.Rand) float64
}

// Laplace is the continuous Laplace mechanism: noise with density
// ∝ exp(−|x|·ε/Δ).
type Laplace struct{}

// Name implements Mechanism.
func (Laplace) Name() string { return "laplace" }

// Perturb implements Mechanism.
func (Laplace) Perturb(value, sensitivity, epsilon float64, rng *rand.Rand) float64 {
	return value + SampleLaplace(sensitivity/epsilon, rng)
}

// SampleLaplace draws from Laplace(0, b) by inverse CDF. The degenerate
// draw u = 0 (rng.Float64 returns values in [0, 1)) would make the
// inverse CDF take log(0) = −Inf; the argument is clamped to the
// smallest positive float instead, which caps |noise| at ≈ 745·b and
// keeps every release finite.
func SampleLaplace(b float64, rng *rand.Rand) float64 {
	u := rng.Float64() - 0.5
	x := 1 - 2*math.Abs(u)
	if x < math.SmallestNonzeroFloat64 {
		x = math.SmallestNonzeroFloat64
	}
	return -b * sign(u) * math.Log(x)
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// Geometric is the two-sided geometric (discrete Laplace) mechanism,
// suited to integer count releases: P(noise = k) ∝ α^|k| with
// α = exp(−ε/Δ).
type Geometric struct{}

// Name implements Mechanism.
func (Geometric) Name() string { return "geometric" }

// Perturb implements Mechanism.
func (Geometric) Perturb(value, sensitivity, epsilon float64, rng *rand.Rand) float64 {
	return value + float64(SampleTwoSidedGeometric(math.Exp(-epsilon/sensitivity), rng))
}

// SampleTwoSidedGeometric draws an integer with P(k) = (1−α)/(1+α)·α^|k|.
func SampleTwoSidedGeometric(alpha float64, rng *rand.Rand) int {
	if alpha <= 0 {
		return 0
	}
	// Difference of two one-sided geometrics is two-sided geometric.
	g := func() int {
		// P(X = k) = (1−α) α^k, k ≥ 0, by inversion.
		u := rng.Float64()
		return int(math.Floor(math.Log(1-u) / math.Log(alpha)))
	}
	return g() - g()
}

// ErrBudgetExhausted reports a release refused because it would exceed
// the total ε budget. Returned (wrapped, with the amounts) by
// Accountant.Spend and CountReleaser.Release; match with errors.Is.
// Serving layers map it to 429 Too Many Requests.
var ErrBudgetExhausted = errors.New("privacy: budget exhausted")

// Accountant tracks a total privacy budget under sequential composition:
// every release spends its ε, and releases beyond the budget are
// refused. It is safe for concurrent use.
type Accountant struct {
	mu    sync.Mutex
	total float64
	spent float64
}

// NewAccountant returns an accountant with the given total ε budget,
// which must be positive and finite.
func NewAccountant(totalEpsilon float64) (*Accountant, error) {
	if !validEpsilon(totalEpsilon) {
		return nil, fmt.Errorf("privacy: total epsilon must be positive and finite, got %v", totalEpsilon)
	}
	return &Accountant{total: totalEpsilon}, nil
}

// Spend reserves ε from the budget, or reports the exhaustion error.
// A NaN or infinite ε is refused: NaN would pass every budget
// comparison, and +Inf would release with noise scale 0.
func (a *Accountant) Spend(epsilon float64) error {
	if !validEpsilon(epsilon) {
		return fmt.Errorf("privacy: epsilon must be positive and finite, got %v", epsilon)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spent+epsilon > a.total+1e-12 {
		return fmt.Errorf("%w: %.4g spent of %.4g, %.4g requested",
			ErrBudgetExhausted, a.spent, a.total, epsilon)
	}
	a.spent += epsilon
	return nil
}

// validEpsilon reports whether eps is a usable privacy parameter:
// positive and finite (false for NaN).
func validEpsilon(eps float64) bool { return eps > 0 && !math.IsInf(eps, 1) }

// Remaining returns the unspent budget.
func (a *Accountant) Remaining() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total - a.spent
}

// Spent returns the consumed budget.
func (a *Accountant) Spent() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// CountReleaser answers count queries privately: the exact framework
// count is computed first, then perturbed and accounted.
type CountReleaser struct {
	mech Mechanism
	acct *Accountant
	// Sensitivity of the released statistic; 1 for object counts.
	sensitivity float64
	rng         *rand.Rand
	mu          sync.Mutex
}

// NewCountReleaser builds a releaser over an accountant. seed drives the
// noise stream (use crypto-grade entropy in production; experiments use
// fixed seeds for reproducibility).
func NewCountReleaser(mech Mechanism, acct *Accountant, seed int64) *CountReleaser {
	return &CountReleaser{
		mech:        mech,
		acct:        acct,
		sensitivity: 1,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// Release perturbs the exact count with an ε-DP mechanism, spending ε
// from the budget. Negative releases are clamped to 0 (post-processing
// preserves differential privacy).
func (cr *CountReleaser) Release(exact float64, epsilon float64) (float64, error) {
	if err := cr.acct.Spend(epsilon); err != nil {
		return 0, err
	}
	cr.mu.Lock()
	noisy := cr.mech.Perturb(exact, cr.sensitivity, epsilon, cr.rng)
	cr.mu.Unlock()
	if noisy < 0 {
		noisy = 0
	}
	return noisy, nil
}
