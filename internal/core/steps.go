package core

import (
	"math"
	"math/bits"
	"sync"
)

// This file implements the exact static kernel (DESIGN.md §6, §7.2): a
// perimeter's occupancy step function over a time window. Every cut
// edge's sealed run is walked once by its window cursor, which yields
// the run's rank at t1 — the boundary integral falls out of the same
// walk, split by direction like a snapshot term — and its events inside
// the window, with the ±1 their direction bits give; each hot tail adds
// its own window, found by binary search. Nothing outside the window is
// reconstructed, the cost is linear in the window's events, and all
// working memory is pooled. The events become steps by one of two
// paths, chosen from the input alone:
//
//   - The grid path (gridSteps). The store's history tick g (1 with
//     tiering off) is the grid. When every sealed run on the perimeter is
//     quantized to g, every hot crossing of the window is float64(k)·g
//     for an integer k, and the window spans 0 ≤ floorTick(t2) −
//     floorTick(t1) ≤ gridSlots ticks, each crossing adds its ±1 to the
//     slot of its tick and marks the slot in a bitmap; one walk over the
//     bitmap then emits the slots that did not cancel, in time order.
//     No sort, no float keys, no entry list: run events stay ticks from
//     the block decoder to the slot.
//   - The sort path (sortSteps), for everything else — raw runs, runs of
//     another tick, off-grid hot crossings, wide, inverted or non-finite
//     windows: each event becomes an order-preserving integer key
//     (timeKey) with its ±1 in one flat list, and one LSD radix sort and
//     one collapse give the steps. SumSteps, the sum of members' or
//     cells' step functions, is the same sort and collapse.
//
// Both give the same steps, entry for entry. An off-grid hot crossing
// is only found in the grid's single pass over the hot windows; it
// aborts the pass, the marked slots are cleared, and the sort path
// starts over.
//
// Against the sort path alone (parent f2ff93d; 2 shared vCPUs, one P,
// alternating runs): the benchmark's engine_hot static_p50_us 20.07 →
// 12.91 µs over ten pairs, BenchmarkStaticCount/warm/kernel 24.3 → 11.7
// µs/op over ten runs; windows the grid refuses cost what they did
// (DESIGN.md §7.2).

// gridSlots is the grid path's slot cap: a window of at most this many
// ticks (4 h 33 min at a 1 s tick; the benchmark's windows are 5–25 % of
// a ≈ 20 000 s lap) is answered in slots. It bounds the pooled scratch
// of the path at 8·gridSlots bytes of slots plus gridSlots/8 of marks —
// 130 KiB — and the emitting walk at gridSlots/64 bitmap words.
const gridSlots = 1 << 14

// stepEntry is one signed crossing, or one step of a list being summed.
type stepEntry struct {
	key   uint64 // timeKey of the instant
	delta int
}

// stepScratch is the pooled working set of one StaticSteps or SumSteps
// call: one sealed run's window, the entries, the radix sort's other
// buffer, and the grid, allocated at the first window the grid takes.
// ents is empty and every slot and mark of the grid zero between uses.
type stepScratch struct {
	times     []float64
	ents, tmp []stepEntry
	grid      *grid
}

// grid is the grid path's working set for one window: the tick g and
// its inverse, the window's bounds and their floor ticks k1 ≤ k2, and
// one slot — the net change at that instant — and one mark bit for each
// tick k of (k1, k2], at index k − k1 − 1.
type grid struct {
	g, inv, t1, t2 float64
	k1, k2         int64
	slots          [gridSlots]int
	marks          [gridSlots / 64]uint64
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

// addTracker walks one cut edge for the sort path: the events of its
// sealed run and hot tails in (t1, t2] become entries, +1 a crossing
// toward the inside (forward when fwd), −1 away; its net count at t1 is
// returned.
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
// tracker, one window walk of its sealed run and of each hot tail, on
// the grid where the input allows and by the sort path otherwise. Base
// and steps of a road come from the same snapshot, so a concurrent
// writer or sealer can never make them disagree.
func (s *Store) StaticSteps(cuts []CutRoad, t1, t2 float64, dst []SignedEvent) (float64, []SignedEvent) {
	sc := stepScratches.Get().(*stepScratch)
	base, steps, ok := sc.gridSteps(s, cuts, t1, t2, dst)
	if !ok {
		base, steps = sc.sortSteps(s, cuts, t1, t2, dst)
	}
	stepScratches.Put(sc)
	return base, steps
}

// sortSteps is StaticSteps by gather, radix sort and collapse.
func (sc *stepScratch) sortSteps(s *Store, cuts []CutRoad, t1, t2 float64, dst []SignedEvent) (float64, []SignedEvent) {
	base := 0
	for _, cr := range cuts {
		if tr := s.loadTracker(cr.Road); tr != nil {
			base += sc.addTracker(tr, s.forward(cr.Road, cr.Inside), t1, t2)
		}
	}
	return float64(base), sc.collapse(dst)
}

// gridSteps is StaticSteps on the tick grid. ok is false — with nothing
// appended to dst and every slot left zero — where the input is not on
// the grid (see the file comment); the caller then takes the sort path.
func (sc *stepScratch) gridSteps(s *Store, cuts []CutRoad, t1, t2 float64, dst []SignedEvent) (base float64, steps []SignedEvent, ok bool) {
	g := 1.0
	if c := s.histCfg.Load(); c != nil {
		g = c.Tick
	}
	// |t/g| < 2⁵⁰ (false for NaN and ±Inf) keeps floorTick's conversion
	// safe and float64(k)·g strictly increasing over the window's ticks,
	// so that one slot is one instant.
	if !(math.Abs(t1/g) < 1<<50 && math.Abs(t2/g) < 1<<50) {
		return 0, dst, false
	}
	k1, k2 := floorTick(t1, g), floorTick(t2, g)
	if k2 < k1 || k2-k1 > gridSlots {
		return 0, dst, false
	}
	if sc.grid == nil {
		sc.grid = new(grid)
	}
	gr := sc.grid
	gr.g, gr.inv, gr.t1, gr.t2, gr.k1, gr.k2 = g, 1/g, t1, t2, k1, k2
	inside := 0
	for _, cr := range cuts {
		if tr := s.loadTracker(cr.Road); tr != nil {
			net, on := gr.addTracker(tr, s.forward(cr.Road, cr.Inside))
			if !on {
				gr.clear()
				return 0, dst, false
			}
			inside += net
		}
	}
	return float64(inside), gr.emit(dst), true
}

// addTracker walks one cut edge onto the grid: each crossing in the
// window adds +1 to its slot toward the inside (forward when fwd), −1
// away; its net count at t1 is returned. ok is false, with the slots
// half filled, when the edge's sealed run is not on the grid or a hot
// crossing of the window is off it.
func (gr *grid) addTracker(tr *Tracker, fwd bool) (net int, ok bool) {
	sign := 1
	if !fwd {
		sign = -1
	}
	le := 0
	if r := tr.sealed; r != nil {
		if r.raw != nil || r.tick != gr.g {
			return 0, false
		}
		le = gr.addRun(r, sign)
	}
	nf, ok := gr.addHot(tr.fwd, sign)
	if !ok {
		return 0, false
	}
	nr, ok := gr.addHot(tr.rev, -sign)
	return sign * (2*tr.sealed.fwdRank(le) - le + nf - nr), ok
}

// addRun adds the window's events of a run quantized to the grid's tick
// to their slots, sign forward and −sign reverse, straight from the
// block decoder's ticks, and returns how many of its events are ≤ t1 —
// run.window's walk, in ticks.
func (gr *grid) addRun(r *run, sign int) int {
	if gr.t1 >= r.last {
		return r.n
	}
	b := max(r.blockOf(gr.k1, 0), 0)
	le := b * segBlockLen
	var buf [segBlockLen]int64
	for ; b < len(r.blocks); b++ {
		n, ticks, end := r.scanBlock(b, gr.k1, gr.k2, buf[:0])
		le += n
		dir := &r.blocks[b].dir
		for i, tv := range ticks {
			j := uint(n + i)
			gr.add(tv, sign*(int(dir[j/64]>>(j%64)&1)*2-1))
		}
		if end != blockDone {
			break
		}
	}
	return le
}

// addHot adds one hot tail's crossings in (t1, t2] to their slots with
// the given sign and returns the tail's count at t1. ok is false at the
// first crossing of the window that is not float64(k)·g for an integer k.
func (gr *grid) addHot(hot []float64, sign int) (int, bool) {
	lo := countLE(hot, gr.t1)
	for _, t := range hot[lo:] {
		if t > gr.t2 {
			break
		}
		k := int64(math.RoundToEven(t * gr.inv))
		if float64(k)*gr.g != t {
			return lo, false
		}
		gr.add(k, sign)
	}
	return lo, true
}

// add adds d to the slot of tick k, k1 < k ≤ k2, and marks it.
func (gr *grid) add(k int64, d int) {
	i := uint64(k - gr.k1 - 1)
	gr.slots[i] += d
	gr.marks[i/64] |= 1 << (i % 64)
}

// emit appends one step per marked slot whose crossings do not cancel —
// §6's tie rule, since a slot holds one instant whole — in time order,
// and zeroes the slots and marks it reads.
func (gr *grid) emit(dst []SignedEvent) []SignedEvent {
	for w := range gr.marks[:(gr.k2-gr.k1+63)/64] {
		for m := gr.marks[w]; m != 0; m &= m - 1 {
			i := 64*w + bits.TrailingZeros64(m)
			if d := gr.slots[i]; d != 0 {
				gr.slots[i] = 0
				dst = append(dst, SignedEvent{T: float64(gr.k1+1+int64(i)) * gr.g, Delta: d})
			}
		}
		gr.marks[w] = 0
	}
	return dst
}

// clear zeroes the marked slots and the marks of an aborted pass.
func (gr *grid) clear() {
	for w := range gr.marks[:(gr.k2-gr.k1+63)/64] {
		for m := gr.marks[w]; m != 0; m &= m - 1 {
			gr.slots[64*w+bits.TrailingZeros64(m)] = 0
		}
		gr.marks[w] = 0
	}
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
	dst = sc.collapse(dst)
	stepScratches.Put(sc)
	return dst
}

// collapse sorts the entries and appends one step per instant whose
// entries do not cancel to dst — §6's tie rule, since an instant is
// summed whole before anything reads the occupancy — and empties them.
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
