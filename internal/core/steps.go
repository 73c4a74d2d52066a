package core

import (
	"math"
	"math/bits"
	"sync"
)

// This file implements the exact static kernel (DESIGN.md §6, §7.2): a
// perimeter's occupancy step function over a time window, built by one
// gather, one radix sort and one collapse. Every tracking-form direction
// is walked once by its window cursor (Tracker.window), which yields the
// direction's count at t1 — the boundary integral falls out of the same
// walk — and its timestamps inside the window, each appended to one flat
// list as an order-preserving integer key with its ±1. Nothing outside
// the window is reconstructed, the cost is linear in the window's
// events, and all working memory is pooled.

// stepEntry is one signed crossing, or one step of a list being summed.
type stepEntry struct {
	key   uint64 // timeKey of the instant
	delta int
}

// stepScratch is the pooled working set of one StaticSteps or SumSteps
// call: one direction's window, the entries, the radix sort's other
// buffer. ents is empty between uses.
type stepScratch struct {
	times     []float64
	ents, tmp []stepEntry
}

var stepScratches = sync.Pool{New: func() any { return new(stepScratch) }}

// stepBufs pools the step buffers StaticCount hands to StaticSteps.
var stepBufs = sync.Pool{New: func() any { return new([]SignedEvent) }}

// timeKey maps t to a key whose unsigned order is the float order: a
// negative's bits are flipped, a non-negative's sign bit is set. It is
// exact for every float but NaN. t + 0 turns -0 into +0, so the two
// zeros, equal under the tie rule's ==, share one key.
func timeKey(t float64) uint64 {
	b := math.Float64bits(t + 0)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyTime inverts timeKey.
func keyTime(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// addDirection walks one tracking-form direction: its window becomes
// entries of the given sign, its count at t1 is returned.
func (sc *stepScratch) addDirection(tr *Tracker, forward bool, sign int, t1, t2 float64) int {
	var le int
	le, sc.times = tr.window(forward, t1, t2, sc.times[:0])
	for _, t := range sc.times {
		sc.ents = append(sc.ents, stepEntry{timeKey(t), sign})
	}
	return le
}

// StaticSteps implements StepLister: one load of each cut's published
// tracker, one window walk per direction, one sort. Base and steps of a
// road come from the same snapshot, so a concurrent writer or sealer can
// never make them disagree.
func (s *Store) StaticSteps(cuts []CutRoad, t1, t2 float64, dst []SignedEvent) (float64, []SignedEvent) {
	sc := stepScratches.Get().(*stepScratch)
	base := 0
	for _, cr := range cuts {
		if tr := s.loadTracker(cr.Road); tr != nil {
			fwd := s.forward(cr.Road, cr.Inside)
			base += sc.addDirection(tr, fwd, +1, t1, t2) - sc.addDirection(tr, !fwd, -1, t1, t2)
		}
	}
	return float64(base), sc.collapse(dst)
}

// SumSteps appends the sum of the given step functions to dst: the
// entries of all lists in time order, entries of one instant added up
// and dropped when they cancel. Every list must be strictly increasing
// in T with no zero Delta, and so is the result.
func SumSteps(dst []SignedEvent, lists [][]SignedEvent) []SignedEvent {
	sc := stepScratches.Get().(*stepScratch)
	for _, l := range lists {
		for _, st := range l {
			sc.ents = append(sc.ents, stepEntry{timeKey(st.T), st.Delta})
		}
	}
	return sc.collapse(dst)
}

// collapse sorts the entries and appends one step per instant whose
// entries do not cancel to dst — §6's tie rule, since an instant is
// summed whole before anything reads the occupancy — then returns the
// scratch to its pool.
func (sc *stepScratch) collapse(dst []SignedEvent) []SignedEvent {
	ents := sc.sort()
	for i := 0; i < len(ents); {
		k, d := ents[i].key, ents[i].delta
		for i++; i < len(ents) && ents[i].key == k; i++ {
			d += ents[i].delta
		}
		if d != 0 {
			dst = append(dst, SignedEvent{T: keyTime(k), Delta: d})
		}
	}
	sc.ents = sc.ents[:0]
	stepScratches.Put(sc)
	return dst
}

// sort orders the entries by key with an LSD radix sort over 8-bit
// digits, and returns them from whichever buffer the last pass wrote.
// Only the digits spanning the bits where keys differ — the set bits of
// OR ^ AND over all keys — are sorted: a window of whole seconds varies
// in about a dozen bits and takes two passes, any input at most eight.
func (sc *stepScratch) sort() []stepEntry {
	a := sc.ents
	or, and := uint64(0), ^uint64(0)
	for _, e := range a {
		or, and = or|e.key, and&e.key
	}
	diff := or ^ and
	if diff == 0 {
		return a // no entries, or all of one instant
	}
	if cap(sc.tmp) < len(a) {
		sc.tmp = make([]stepEntry, len(a), cap(a))
	}
	b := sc.tmp[:len(a)]
	for shift, top := bits.TrailingZeros64(diff), 64-bits.LeadingZeros64(diff); shift < top; shift += 8 {
		var at [256]int
		for _, e := range a {
			at[byte(e.key>>shift)]++
		}
		pos := 0
		for d, n := range at {
			at[d], pos = pos, pos+n
		}
		for _, e := range a {
			d := byte(e.key >> shift)
			b[at[d]] = e
			at[d]++
		}
		a, b = b, a
	}
	return a
}
