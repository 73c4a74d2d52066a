package learned

import "repro/internal/core"

// This file implements the fused perimeter integrals of core.Counter
// for the learned store: whole-perimeter integrals with one model fetch
// per cut road. Model inference returns real floats, so — unlike the
// exact store, whose counts are integers — accumulation order matters
// to the last ulp. Every kernel below therefore accumulates in exactly
// the order of the per-edge reference kernels in internal/core, keeping
// the results bit-identical to them (the property tests assert this).

// models returns the direction models of one cut edge: in toward the
// region, out away from it.
func (ls *Store) models(cr core.CutRoad) (in, out Model) {
	if _, head := ls.w.TrackedEnds(cr.Road); cr.Inside == head {
		return ls.fwd[cr.Road], ls.rev[cr.Road]
	}
	return ls.rev[cr.Road], ls.fwd[cr.Road]
}

func countAt(m Model, t float64) float64 {
	if m == nil {
		return 0
	}
	return m.CountAt(t)
}

// CountCuts implements core.Counter: the boundary integral at t
// with one model fetch per cut road.
func (ls *Store) CountCuts(cuts []core.CutRoad, t float64) float64 {
	var total float64
	for _, cr := range cuts {
		in, out := ls.models(cr)
		total += countAt(in, t)
		total -= countAt(out, t)
	}
	return total
}

// CutFlow implements core.Counter: both endpoint integrals in a
// single perimeter pass. The two sums are accumulated separately, in
// reference order, so the result equals the reference two-snapshot
// difference bit for bit.
func (ls *Store) CutFlow(cuts []core.CutRoad, t1, t2 float64) float64 {
	var s1, s2 float64
	for _, cr := range cuts {
		in, out := ls.models(cr)
		s1 += countAt(in, t1)
		s1 -= countAt(out, t1)
		s2 += countAt(in, t2)
		s2 -= countAt(out, t2)
	}
	return s2 - s1
}
