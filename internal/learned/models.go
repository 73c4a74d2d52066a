// Package learned implements the paper's constant-size temporal models
// (§4.8): instead of storing every crossing timestamp of a tracking form,
// each edge direction keeps a small regression model of the event-time
// CDF, C(γ, t) ≈ model(t), trained once the ingest buffer fills
// (FLIRT-style rolling). Lookups become O(1) inference and storage
// becomes independent of the event count — at the price of a small
// approximation error, quantified in Fig. 14c/d.
package learned

import (
	"fmt"
	"math"
	"sort"
)

// Model approximates the cumulative event count C(γ, t).
type Model interface {
	// Name identifies the regressor family.
	Name() string
	// CountAt returns the (possibly fractional) number of events ≤ t.
	CountAt(t float64) float64
	// SizeBytes is the storage footprint of the model parameters.
	SizeBytes() int
}

// Trainer fits a Model to a sorted timestamp sequence; the i-th timestamp
// has cumulative count i+1.
type Trainer interface {
	// Name identifies the regressor family.
	Name() string
	// Train fits a model to the sorted event times.
	Train(ts []float64) Model
}

// clampCount clips a regression prediction to the valid count range
// [0, n] and the training time span: predictions before the first event
// are 0, after the last are n.
func clampCount(v float64, n int) float64 {
	if v < 0 {
		return 0
	}
	if v > float64(n) {
		return float64(n)
	}
	return v
}

// ---- Exact baseline ----

// ExactTrainer stores the timestamps verbatim; it is the zero-error,
// linear-storage baseline of Fig. 11e.
type ExactTrainer struct{}

// Name implements Trainer.
func (ExactTrainer) Name() string { return "exact" }

// Train implements Trainer.
func (ExactTrainer) Train(ts []float64) Model {
	cp := make([]float64, len(ts))
	copy(cp, ts)
	return exactModel(cp)
}

type exactModel []float64

func (m exactModel) Name() string { return "exact" }

func (m exactModel) CountAt(t float64) float64 {
	return float64(sort.Search(len(m), func(i int) bool { return m[i] > t }))
}

func (m exactModel) SizeBytes() int { return len(m) * 8 }

// ---- Linear regression ----

// LinearTrainer fits C(t) ≈ α + βt by least squares (Fig. 9a).
type LinearTrainer struct{}

// Name implements Trainer.
func (LinearTrainer) Name() string { return "linear" }

// Train implements Trainer.
func (LinearTrainer) Train(ts []float64) Model {
	n := len(ts)
	m := &linearModel{n: n}
	if n == 0 {
		return m
	}
	m.first, m.last = ts[0], ts[n-1]
	if n == 1 || m.last == m.first {
		m.alpha = float64(n)
		return m
	}
	// Least squares on (t_i, i+1).
	var sx, sy, sxx, sxy float64
	for i, t := range ts {
		y := float64(i + 1)
		sx += t
		sy += y
		sxx += t * t
		sxy += t * y
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		m.alpha = sy / fn
		return m
	}
	m.beta = (fn*sxy - sx*sy) / den
	m.alpha = (sy - m.beta*sx) / fn
	return m
}

type linearModel struct {
	alpha, beta float64
	first, last float64
	n           int
}

func (m *linearModel) Name() string { return "linear" }

func (m *linearModel) CountAt(t float64) float64 {
	if m.n == 0 || t < m.first {
		return 0
	}
	if t >= m.last {
		return float64(m.n)
	}
	return clampCount(m.alpha+m.beta*t, m.n)
}

func (m *linearModel) SizeBytes() int { return 4 * 8 }

// ---- Polynomial regression ----

// PolyTrainer fits a degree-d polynomial CDF (Fig. 9b). Degrees 2 and 3
// are the useful range; higher degrees are numerically fragile on raw
// timestamps and rejected.
type PolyTrainer struct {
	// Degree of the polynomial (2 or 3; default 2).
	Degree int
}

// Name implements Trainer.
func (p PolyTrainer) Name() string {
	d := p.Degree
	if d == 0 {
		d = 2
	}
	return fmt.Sprintf("poly%d", d)
}

// Train implements Trainer. CountAt must not decrease, and a
// least-squares polynomial can dip inside the training span, so a fit
// whose derivative goes negative there is refitted one degree lower,
// ending at the always-monotone linear fit — which is also the answer
// to a degenerate design matrix.
func (p PolyTrainer) Train(ts []float64) Model {
	d := p.Degree
	if d == 0 {
		d = 2
	}
	if d < 1 {
		d = 1
	}
	if d > 3 {
		d = 3
	}
	n := len(ts)
	m := &polyModel{n: n, deg: d}
	if n == 0 {
		return m
	}
	m.first, m.last = ts[0], ts[n-1]
	span := m.last - m.first
	if span <= 0 {
		m.coef = []float64{float64(n)}
		return m
	}
	m.scale = 1 / span
	for ; m.deg >= 1; m.deg-- {
		coef, ok := fitPoly(ts, m.first, m.scale, m.deg)
		if !ok {
			break
		}
		if nonDecreasing(coef) {
			m.coef = coef
			return m
		}
	}
	return LinearTrainer{}.Train(ts)
}

// fitPoly solves the degree-d normal equations over normalized
// x ∈ [0,1]; tiny system, Gaussian elimination with partial pivoting.
func fitPoly(ts []float64, first, scale float64, d int) ([]float64, bool) {
	k := d + 1
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, k+1)
	}
	for i, t := range ts {
		x := (t - first) * scale
		y := float64(i + 1)
		pow := make([]float64, 2*k-1)
		pow[0] = 1
		for j := 1; j < len(pow); j++ {
			pow[j] = pow[j-1] * x
		}
		for r := 0; r < k; r++ {
			for c := 0; c < k; c++ {
				a[r][c] += pow[r+c]
			}
			a[r][k] += pow[r] * y
		}
	}
	return solve(a)
}

// nonDecreasing reports whether the polynomial Σ coef[i]·xⁱ (degree ≤ 3)
// has a non-negative derivative a + bx + cx² on all of [0,1]: at both
// ends, and at the vertex when it is an interior minimum.
func nonDecreasing(coef []float64) bool {
	var q [3]float64
	for i := 1; i < len(coef); i++ {
		q[i-1] = float64(i) * coef[i]
	}
	a, b, c := q[0], q[1], q[2]
	lowest := math.Min(a, a+b+c)
	if x := -b / (2 * c); c > 0 && x > 0 && x < 1 {
		lowest = math.Min(lowest, a+b*x+c*x*x)
	}
	return lowest >= 0
}

// solve performs Gaussian elimination on the augmented matrix a
// (k rows × k+1 columns), returning the solution vector.
func solve(a [][]float64) ([]float64, bool) {
	k := len(a)
	for col := 0; col < k; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= k; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		out[i] = a[i][k] / a[i][i]
	}
	return out, true
}

type polyModel struct {
	coef        []float64
	first, last float64
	scale       float64
	n, deg      int
}

func (m *polyModel) Name() string { return fmt.Sprintf("poly%d", m.deg) }

func (m *polyModel) CountAt(t float64) float64 {
	if m.n == 0 || t < m.first {
		return 0
	}
	if t >= m.last {
		return float64(m.n)
	}
	x := (t - m.first) * m.scale
	v := 0.0
	for i := len(m.coef) - 1; i >= 0; i-- {
		v = v*x + m.coef[i]
	}
	return clampCount(v, m.n)
}

func (m *polyModel) SizeBytes() int { return (len(m.coef) + 3) * 8 }

// ---- Piecewise-linear regression ----

// PiecewiseTrainer fits a fixed number of equal-frequency linear segments
// (Fig. 9c's spline-style regressor): knots at every ⌈n/Segments⌉-th
// event, linear interpolation of the CDF between knots. Storage is
// 2·(Segments+1) floats regardless of n.
type PiecewiseTrainer struct {
	// Segments is the number of linear pieces (default 8).
	Segments int
}

// Name implements Trainer.
func (p PiecewiseTrainer) Name() string {
	s := p.Segments
	if s == 0 {
		s = 8
	}
	return fmt.Sprintf("pwl%d", s)
}

// Train implements Trainer.
func (p PiecewiseTrainer) Train(ts []float64) Model {
	segs := p.Segments
	if segs <= 0 {
		segs = 8
	}
	n := len(ts)
	m := &pwlModel{n: n, name: p.Name()}
	if n == 0 {
		return m
	}
	if n <= segs+1 {
		// Few events: knots are the events themselves (still bounded by
		// the configured segment count + 1).
		for i, t := range ts {
			m.knotT = append(m.knotT, t)
			m.knotC = append(m.knotC, float64(i+1))
		}
		return m
	}
	for s := 0; s <= segs; s++ {
		idx := s * (n - 1) / segs
		m.knotT = append(m.knotT, ts[idx])
		m.knotC = append(m.knotC, float64(idx+1))
	}
	return m
}

type pwlModel struct {
	knotT, knotC []float64
	n            int
	name         string
}

func (m *pwlModel) Name() string { return m.name }

func (m *pwlModel) CountAt(t float64) float64 {
	if m.n == 0 || len(m.knotT) == 0 || t < m.knotT[0] {
		return 0
	}
	last := len(m.knotT) - 1
	if t >= m.knotT[last] {
		return float64(m.n)
	}
	// Binary search for the segment.
	i := sort.SearchFloat64s(m.knotT, t)
	if i > 0 && (i == len(m.knotT) || m.knotT[i] > t) {
		i--
	}
	t0, t1 := m.knotT[i], m.knotT[i+1]
	c0, c1 := m.knotC[i], m.knotC[i+1]
	if t1 == t0 {
		return clampCount(c1, m.n)
	}
	return clampCount(c0+(c1-c0)*(t-t0)/(t1-t0), m.n)
}

func (m *pwlModel) SizeBytes() int { return len(m.knotT) * 2 * 8 }

// ---- Step (histogram) regression ----

// StepTrainer fits an equal-width time histogram of event counts — the
// simplest constant-size regressor, included as an ablation point.
type StepTrainer struct {
	// Bins is the number of histogram bins (default 16).
	Bins int
}

// Name implements Trainer.
func (s StepTrainer) Name() string {
	b := s.Bins
	if b == 0 {
		b = 16
	}
	return fmt.Sprintf("step%d", b)
}

// Train implements Trainer.
func (s StepTrainer) Train(ts []float64) Model {
	bins := s.Bins
	if bins <= 0 {
		bins = 16
	}
	n := len(ts)
	m := &stepModel{n: n, name: s.Name()}
	if n == 0 {
		return m
	}
	m.first, m.last = ts[0], ts[n-1]
	span := m.last - m.first
	if span <= 0 {
		m.cum = []float64{float64(n)}
		return m
	}
	m.cum = make([]float64, bins)
	for _, t := range ts {
		b := int((t - m.first) / span * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		m.cum[b]++
	}
	for i := 1; i < bins; i++ {
		m.cum[i] += m.cum[i-1]
	}
	return m
}

type stepModel struct {
	cum         []float64
	first, last float64
	n           int
	name        string
}

func (m *stepModel) Name() string { return m.name }

func (m *stepModel) CountAt(t float64) float64 {
	if m.n == 0 || t < m.first {
		return 0
	}
	if t >= m.last {
		return float64(m.n)
	}
	span := m.last - m.first
	b := int((t - m.first) / span * float64(len(m.cum)))
	if b >= len(m.cum) {
		b = len(m.cum) - 1
	}
	return clampCount(m.cum[b], m.n)
}

func (m *stepModel) SizeBytes() int { return (len(m.cum) + 3) * 8 }

// Registry returns the regressor families evaluated in Fig. 14c/d plus
// the exact baseline.
func Registry() []Trainer {
	return []Trainer{
		ExactTrainer{},
		LinearTrainer{},
		PolyTrainer{Degree: 2},
		PolyTrainer{Degree: 3},
		PiecewiseTrainer{Segments: 8},
		StepTrainer{Bins: 16},
	}
}
