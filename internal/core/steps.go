package core

import "sync"

// This file implements the exact static kernel (DESIGN.md §6, §7.2): a
// perimeter's occupancy step function over a time window, built in one
// pass. Every tracking-form direction is walked once by its window
// cursor (Tracker.window), which yields the direction's count at t1 —
// the boundary integral falls out of the same walk — and its
// timestamps inside the window as one sorted run; the runs are then
// added pairwise, level by level, into a single step function. Nothing
// outside the window is reconstructed, nothing is sorted, and all
// working memory is pooled.

// stepScratch is the pooled working set of one StaticSteps or SumSteps
// call.
type stepScratch struct {
	// times holds one direction's window while it is turned into a run.
	times []float64
	// a and b are the merge levels: the runs of a perimeter are laid out
	// back to back in a (ends[i] closes run i), and every level adds
	// neighbouring lists from one buffer into the other.
	a, b  []SignedEvent
	ends  []int
	lists [][]SignedEvent
}

var stepScratches = sync.Pool{New: func() any { return new(stepScratch) }}

// stepBufs pools the step buffers StaticCount hands to StaticSteps.
var stepBufs = sync.Pool{New: func() any { return new([]SignedEvent) }}

// addRun appends the sorted timestamps ts to the run layout as one step
// function: equal timestamps collapse into one entry of sign × their
// count.
func (sc *stepScratch) addRun(ts []float64, sign int) {
	if len(ts) == 0 {
		return
	}
	for i := 0; i < len(ts); {
		j := i + 1
		for j < len(ts) && ts[j] == ts[i] {
			j++
		}
		sc.a = append(sc.a, SignedEvent{T: ts[i], Delta: sign * (j - i)})
		i = j
	}
	sc.ends = append(sc.ends, len(sc.a))
}

// addDirection walks one tracking-form direction: its window becomes a
// run, its count at t1 is returned.
func (sc *stepScratch) addDirection(tr *Tracker, forward bool, sign int, t1, t2 float64) int {
	var le int
	le, sc.times = tr.window(forward, t1, t2, sc.times[:0])
	sc.addRun(sc.times, sign)
	return le
}

// StaticSteps implements StepLister: one load of each cut's published
// tracker, one window walk per direction, one merge. Base and
// steps of a road come from the same snapshot, so a concurrent writer
// or sealer can never make them disagree.
func (s *Store) StaticSteps(cuts []CutRoad, t1, t2 float64, dst []SignedEvent) (float64, []SignedEvent) {
	sc := stepScratches.Get().(*stepScratch)
	sc.a, sc.ends, sc.lists = sc.a[:0], sc.ends[:0], sc.lists[:0]
	base := 0
	for _, cr := range cuts {
		tr := s.loadTracker(cr.Road)
		if tr == nil {
			continue
		}
		fwd := s.forward(cr.Road, cr.Inside)
		base += sc.addDirection(tr, fwd, +1, t1, t2) - sc.addDirection(tr, !fwd, -1, t1, t2)
	}
	start := 0
	for _, end := range sc.ends {
		sc.lists = append(sc.lists, sc.a[start:end])
		start = end
	}
	dst = sc.sum(dst, sc.lists)
	stepScratches.Put(sc)
	return float64(base), dst
}

// SumSteps appends the sum of the given step functions to dst: the
// entries of all lists in time order, entries of one instant added up
// and dropped when they cancel. Every list must be strictly increasing
// in T with no zero Delta, and so is the result. The lists slice itself
// is used as scratch.
func SumSteps(dst []SignedEvent, lists [][]SignedEvent) []SignedEvent {
	sc := stepScratches.Get().(*stepScratch)
	dst = sc.sum(dst, lists)
	stepScratches.Put(sc)
	return dst
}

// sum is SumSteps over the scratch's merge levels: each level adds
// neighbouring lists pairwise into the buffer the previous level did
// not write (the first into b, since a may hold the lists themselves),
// halving their number; the last addition goes straight to dst. k
// lists holding E entries cost O(E log k).
func (sc *stepScratch) sum(dst []SignedEvent, lists [][]SignedEvent) []SignedEvent {
	for len(lists) > 2 {
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		// Sized up front: a level never reallocates under its own results.
		out := sc.b[:0]
		if cap(out) < total {
			out = make([]SignedEvent, 0, total)
		}
		n := 0
		for i := 0; i < len(lists); i += 2 {
			start := len(out)
			if i+1 < len(lists) {
				out = addSteps(out, lists[i], lists[i+1])
			} else {
				out = append(out, lists[i]...)
			}
			lists[n] = out[start:]
			n++
		}
		lists = lists[:n]
		sc.a, sc.b = out, sc.a
	}
	switch len(lists) {
	case 2:
		return addSteps(dst, lists[0], lists[1])
	case 1:
		return append(dst, lists[0]...)
	}
	return dst
}

// addSteps appends the sum of the step functions a and b to dst.
func addSteps(dst, a, b []SignedEvent) []SignedEvent {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch x, y := a[i], b[j]; {
		case x.T < y.T:
			dst = append(dst, x)
			i++
		case y.T < x.T:
			dst = append(dst, y)
			j++
		default:
			if d := x.Delta + y.Delta; d != 0 {
				dst = append(dst, SignedEvent{T: x.T, Delta: d})
			}
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
