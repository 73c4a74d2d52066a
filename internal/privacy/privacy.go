// Package privacy adds differential-privacy guarantees on top of the
// counting framework — the extension the paper points to (§4.1, citing
// Ghosh et al., "Differentially Private Range Counting in Planar Graphs
// for Spatial Sensing", INFOCOM 2020). Counts released to the query
// server are perturbed with calibrated noise, and a budget accountant
// enforces a total ε across queries.
//
// The aggregate range count has sensitivity 1 with respect to one
// object's presence (adding or removing one object changes any region
// count by at most 1), so a count released with two-sided geometric
// noise, P(k) ∝ exp(−ε·|k|), is ε-differentially private. The release
// stays an integer, so no floating-point low bits can leak the exact
// value (Mironov, CCS 2012).
package privacy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// SampleTwoSidedGeometric draws integer noise with P(k) ∝ exp(−ε·|k|),
// the two-sided geometric at α = exp(−ε): the difference of two
// one-sided geometrics P(X = k) = (1−α)·α^k, k ≥ 0, each drawn by
// inversion as ⌊−ln(1−u)/ε⌋. Dividing by ε rather than by ln α keeps a
// tiny ε's noise wide: exp(−ε) rounds to 1 below ε ≈ 1e-16, where ln α
// would be 0. The draw is a float64 holding an integer.
func SampleTwoSidedGeometric(epsilon float64, rng *rand.Rand) float64 {
	g := func() float64 { return math.Floor(-math.Log1p(-rng.Float64()) / epsilon) }
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
	acct *Accountant
	rng  *rand.Rand
	mu   sync.Mutex
}

// NewCountReleaser builds a releaser over an accountant. seed drives the
// noise stream (use crypto-grade entropy in production; experiments use
// fixed seeds for reproducibility).
func NewCountReleaser(acct *Accountant, seed int64) *CountReleaser {
	return &CountReleaser{acct: acct, rng: rand.New(rand.NewSource(seed))}
}

// Release perturbs the exact count with two-sided geometric noise at ε
// (an object count has sensitivity 1), spending ε from the budget, so an
// integer count is released as an integer. Negative releases are
// clamped to 0 (post-processing preserves differential privacy).
func (cr *CountReleaser) Release(exact float64, epsilon float64) (float64, error) {
	if err := cr.acct.Spend(epsilon); err != nil {
		return 0, err
	}
	cr.mu.Lock()
	noisy := exact + SampleTwoSidedGeometric(epsilon, cr.rng)
	cr.mu.Unlock()
	if noisy < 0 {
		noisy = 0
	}
	return noisy, nil
}
