package core

// This file implements the Store's fused perimeter integrals — the
// CountCuts and CutFlow of the Counter contract: a whole region
// perimeter in one pass with one tracker-snapshot load per cut road and
// zero lock acquisitions.

// CountCuts implements Counter: the boundary integral at time t in
// one perimeter pass over the published snapshots. Counts are integers,
// so the integer accumulation is exactly the float accumulation of the
// reference kernel.
func (s *Store) CountCuts(cuts []CutRoad, t float64) float64 {
	var total int
	for _, cr := range cuts {
		total += s.cutNetCount(cr, t)
	}
	return float64(total)
}

// cutNetCount is one perimeter element of the boundary integral at t:
// crossings into the region minus crossings out, on one cut edge — one
// descent of its sealed run (Tracker.net).
func (s *Store) cutNetCount(cr CutRoad, t float64) int {
	tr := s.loadTracker(cr.Road)
	if tr == nil {
		return 0
	}
	return tr.net(s.forward(cr.Road, cr.Inside), t)
}

// CutFlow implements Counter: the fused transient integral over
// (t1, t2] — one perimeter pass, one descent of each cut's sealed run
// for both bounds and one per hot tail (Tracker.netIn), no lock
// acquisitions. Equals CountCuts(t2) − CountCuts(t1) on a quiescent
// store.
func (s *Store) CutFlow(cuts []CutRoad, t1, t2 float64) float64 {
	var total int
	for _, cr := range cuts {
		total += s.cutNetFlow(cr, t1, t2)
	}
	return float64(total)
}

// cutNetFlow is one perimeter element of the interval integral over
// (t1, t2] on one cut road.
func (s *Store) cutNetFlow(cr CutRoad, t1, t2 float64) int {
	tr := s.loadTracker(cr.Road)
	if tr == nil {
		return 0
	}
	return tr.netIn(s.forward(cr.Road, cr.Inside), t1, t2)
}
