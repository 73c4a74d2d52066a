package core

import (
	"runtime"
	"sync"
)

// This file implements the Store's fused perimeter integrals — the
// CountCuts and CutFlow of the Counter contract: a whole region
// perimeter in one pass with one tracker-snapshot load per cut road and
// zero lock acquisitions. Large perimeters are integrated in parallel
// across worker goroutines.

// parallelCutThreshold is the perimeter size above which CountCuts and
// CutFlow split the cut set across workers. Below it, goroutine startup
// costs more than the binary searches it saves.
const parallelCutThreshold = 1024

// CountCuts implements Counter: the boundary integral at time t in
// one perimeter pass over the published snapshots. Counts are integers,
// so the integer accumulation is exactly the float accumulation of the
// reference kernel.
func (s *Store) CountCuts(cuts []CutRoad, t float64) float64 {
	var total int
	if len(cuts) < parallelCutThreshold {
		// Inline loop: keeping the closure out of the common case keeps
		// the whole query allocation-free.
		for _, cr := range cuts {
			total += s.cutNetCount(cr, t)
		}
	} else {
		total = s.parallelSum(cuts, func(cr CutRoad) int { return s.cutNetCount(cr, t) })
	}
	return float64(total)
}

// cutNetCount is one perimeter element of the boundary integral at t:
// crossings into the region minus crossings out, on one cut edge.
func (s *Store) cutNetCount(cr CutRoad, t float64) int {
	tr := s.loadTracker(cr.Road)
	if tr == nil {
		return 0
	}
	fwd := s.forward(cr.Road, cr.Inside)
	return tr.Count(fwd, t) - tr.Count(!fwd, t)
}

// CutFlow implements Counter: the fused transient integral over
// (t1, t2] — one perimeter pass, two binary searches per direction, no
// lock acquisitions. Equals CountCuts(t2) − CountCuts(t1) on a
// quiescent store.
func (s *Store) CutFlow(cuts []CutRoad, t1, t2 float64) float64 {
	var total int
	if len(cuts) < parallelCutThreshold {
		for _, cr := range cuts {
			total += s.cutNetFlow(cr, t1, t2)
		}
	} else {
		total = s.parallelSum(cuts, func(cr CutRoad) int { return s.cutNetFlow(cr, t1, t2) })
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
	fwd := s.forward(cr.Road, cr.Inside)
	return tr.countInDir(fwd, t1, t2) - tr.countInDir(!fwd, t1, t2)
}

// parallelSum sums per-cut contributions, splitting the cut set across
// min(GOMAXPROCS, 8) workers when it exceeds parallelCutThreshold.
// Integer partial sums make the split order-insensitive, so parallel
// and serial results are identical. Workers read the same immutable
// published snapshots any serial reader would, so no synchronization
// with writers is needed.
func (s *Store) parallelSum(cuts []CutRoad, f func(CutRoad) int) int {
	if len(cuts) < parallelCutThreshold {
		total := 0
		for _, cr := range cuts {
			total += f(cr)
		}
		return total
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	partial := make([]int, workers)
	chunk := (len(cuts) + workers - 1) / workers
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		lo := wk * chunk
		if lo >= len(cuts) {
			break
		}
		hi := lo + chunk
		if hi > len(cuts) {
			hi = len(cuts)
		}
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			sum := 0
			for _, cr := range cuts[lo:hi] {
				sum += f(cr)
			}
			partial[wk] = sum
		}(wk, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, p := range partial {
		total += p
	}
	return total
}
