package core

import (
	"math"
	"math/bits"
	"sync"
)

// This file implements the exact static kernel (DESIGN.md §6, §7.2): a
// perimeter's occupancy step function over a time window, built by one
// gather, one radix sort and one collapse. Every cut edge's sealed run
// is walked once by its window cursor (run.window), which yields the
// run's rank at t1 — the boundary integral falls out of the same walk,
// split by direction like a snapshot term — and its timestamps inside
// the window, each appended to one flat list as an order-preserving
// integer key with the ±1 its direction bit gives; each hot tail adds
// its own window by two binary searches. Nothing outside the window is
// reconstructed, the cost is linear in the window's events, and all
// working memory is pooled.

// stepEntry is one signed crossing, or one step of a list being summed.
type stepEntry struct {
	key   uint64 // timeKey of the instant
	delta int
}

// stepScratch is the pooled working set of one StaticSteps or SumSteps
// call: one sealed run's window, the entries, the radix sort's other
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

// addTracker walks one cut edge: the events of its sealed run and hot
// tails in (t1, t2] become entries, +1 a crossing toward the inside
// (forward when fwd), −1 away; its net count at t1 is returned.
func (sc *stepScratch) addTracker(tr *Tracker, fwd bool, t1, t2 float64) int {
	sign := 1
	if !fwd {
		sign = -1
	}
	r := tr.sealed
	le, times := r.window(t1, t2, sc.times[:0])
	sc.times = times
	for i, t := range times {
		d := -sign
		if r.isFwd(le + i) {
			d = sign
		}
		sc.ents = append(sc.ents, stepEntry{timeKey(t), d})
	}
	base := 2*r.fwdRank(le) - le
	base += sc.addHot(tr.fwd, sign, t1, t2) - sc.addHot(tr.rev, -sign, t1, t2)
	return sign * base
}

// addHot appends the entries of one hot tail's window, of the given
// sign, and returns its count at t1.
func (sc *stepScratch) addHot(hot []float64, sign int, t1, t2 float64) int {
	lo := countLE(hot, t1)
	for _, t := range hot[lo : lo+countLE(hot[lo:], t2)] {
		sc.ents = append(sc.ents, stepEntry{timeKey(t), sign})
	}
	return lo
}

// StaticSteps implements StepLister: one load of each cut's published
// tracker, one window walk of its sealed run and of each hot tail, one
// sort. Base and steps of a road come from the same snapshot, so a
// concurrent writer or sealer can never make them disagree.
func (s *Store) StaticSteps(cuts []CutRoad, t1, t2 float64, dst []SignedEvent) (float64, []SignedEvent) {
	sc := stepScratches.Get().(*stepScratch)
	base := 0
	for _, cr := range cuts {
		if tr := s.loadTracker(cr.Road); tr != nil {
			base += sc.addTracker(tr, s.forward(cr.Road, cr.Inside), t1, t2)
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
