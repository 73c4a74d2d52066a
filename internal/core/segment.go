package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// This file implements the warm tier of the tiered event history
// (DESIGN.md §12): immutable segments holding a sealed prefix of one
// tracking-form direction in compact form. Timestamps are quantized to
// a fixed tick (losslessly — the seal verifies exact reconstruction and
// falls back to a raw segment otherwise), delta-encoded per block of
// segBlockLen events, and indexed by a per-block skip entry (first tick
// + byte offset), so countIn(t1,t2) is two skip-index binary searches
// plus at most two partial block decodes — never a full decode.
//
// Segments are immutable after sealing: they are shared freely across
// Tracker snapshots, store snapshots (ExportSnapshot), and checkpoint
// images without copying or synchronization.

// segBlockLen is the number of events per skip-index block. 128 keeps
// the partial-decode cost of a query bounded (≤ 2×127 delta decodes)
// while holding the index overhead to one 16-byte entry per 128 events.
const segBlockLen = 128

// segModeVarint marks a block payload as varint-encoded deltas; any
// other mode byte w ≤ segMaxPackWidth means fixed-width bit-packing at
// w bits per delta (w = 0: every event in the block shares the block's
// start tick).
const (
	segModeVarint     = 0xFF
	segMaxPackWidth   = 32
	segStructBytes    = 96 // approximate segment struct + slice headers
	segIndexEntrySize = 16
)

// segBlock is one skip-index entry: the tick value of the block's first
// event and the byte offset of the block's payload in segment.data.
type segBlock struct {
	startTick int64
	off       uint32
}

// segment is one immutable sealed run of a direction's timestamp
// sequence. Exactly one of (blocks+data) or raw is populated: raw is
// the lossless fallback for sequences that do not quantize exactly to
// the tick.
type segment struct {
	// startIdx is the index of this segment's first event within its
	// history (events sealed before it).
	startIdx int
	n        int
	tick     float64
	blocks   []segBlock
	data     []byte
	raw      []float64
	// first and last are the reconstructed first/last timestamps,
	// cached for skip searches.
	first, last float64
}

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// quantize maps ts onto the tick grid, requiring exact reconstruction:
// float64(tick_i)*tick must equal ts[i] bit for bit. ok is false when
// any timestamp is off-grid (the caller seals a raw segment instead).
func quantize(ts []float64, tick float64) ([]int64, bool) {
	out := make([]int64, len(ts))
	for i, t := range ts {
		q := math.Round(t / tick)
		if math.IsNaN(q) || math.Abs(q) >= 1<<62 {
			return nil, false
		}
		tv := int64(q)
		if float64(tv)*tick != t {
			return nil, false
		}
		out[i] = tv
	}
	return out, true
}

// appendPacked appends ds bit-packed at width w (little-endian bit
// order). w must be ≤ segMaxPackWidth, so the 64-bit accumulator never
// overflows (< 8 residual bits + 32 new bits).
func appendPacked(dst []byte, ds []uint64, w int) []byte {
	if w == 0 {
		return dst
	}
	var acc uint64
	nacc := 0
	for _, d := range ds {
		acc |= d << nacc
		nacc += w
		for nacc >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nacc -= 8
		}
	}
	if nacc > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// sealSegment freezes ts (sorted, non-decreasing, non-empty) into an
// immutable segment quantized to tick. Each block's payload is encoded
// as either fixed-width bit-packed deltas or varint deltas, whichever
// is smaller. When any timestamp does not reconstruct exactly from the
// tick grid the whole segment falls back to raw storage, preserving
// bit-identical answers unconditionally.
func sealSegment(ts []float64, tick float64, startIdx int) *segment {
	g := &segment{
		startIdx: startIdx,
		n:        len(ts),
		tick:     tick,
		first:    ts[0],
		last:     ts[len(ts)-1],
	}
	ticks, ok := quantize(ts, tick)
	if !ok {
		g.raw = copyTimes(ts)
		return g
	}
	nb := (len(ts) + segBlockLen - 1) / segBlockLen
	g.blocks = make([]segBlock, nb)
	var deltas [segBlockLen]uint64
	var tmp [binary.MaxVarintLen64]byte
	for b := 0; b < nb; b++ {
		lo := b * segBlockLen
		hi := lo + segBlockLen
		if hi > len(ts) {
			hi = len(ts)
		}
		g.blocks[b] = segBlock{startTick: ticks[lo], off: uint32(len(g.data))}
		nd := hi - lo - 1
		maxD := uint64(0)
		vsize := 0
		for j := 0; j < nd; j++ {
			d := uint64(ticks[lo+1+j] - ticks[lo+j])
			deltas[j] = d
			if d > maxD {
				maxD = d
			}
			vsize += uvarintLen(d)
		}
		w := bits.Len64(maxD)
		if psize := (nd*w + 7) / 8; w <= segMaxPackWidth && psize <= vsize {
			g.data = append(g.data, byte(w))
			g.data = appendPacked(g.data, deltas[:nd], w)
		} else {
			g.data = append(g.data, segModeVarint)
			for j := 0; j < nd; j++ {
				g.data = append(g.data, tmp[:binary.PutUvarint(tmp[:], deltas[j])]...)
			}
		}
	}
	// Re-slice to exact capacity: the sealed form is long-lived, so the
	// append slack is worth reclaiming.
	g.data = append(make([]byte, 0, len(g.data)), g.data...)
	return g
}

// numBlocks returns the skip-index block count.
func (g *segment) numBlocks() int { return len(g.blocks) }

// blockLen returns the number of events in block b.
func (g *segment) blockLen(b int) int {
	if (b+1)*segBlockLen <= g.n {
		return segBlockLen
	}
	return g.n - b*segBlockLen
}

// blockEnd says why a block scan stopped.
type blockEnd uint8

const (
	// blockDone: the block ran out with no event past the upper bound,
	// so the scan may continue into the next block.
	blockDone blockEnd = iota
	// blockPast: the scan stopped at the first event past the upper
	// bound; nothing later in the direction can be at or below it.
	blockPast
	// blockCorrupt: the payload is structurally broken (defensive:
	// segments reaching the serving path have been validated, see
	// validate).
	blockCorrupt
)

// scanBlock is countBlockLE carried on through a time window: walking
// block b's encoded deltas in the tick domain, it counts the events with
// tick ≤ q1, appends the reconstructed timestamps of the events with
// q1 < tick ≤ q2 to dst, and stops at the first event past q2 — so a
// window reconstructs exactly the events it yields, never a whole block.
func (g *segment) scanBlock(b int, q1, q2 int64, dst []float64) (le int, out []float64, end blockEnd) {
	off := int(g.blocks[b].off)
	if off >= len(g.data) {
		return 0, dst, blockCorrupt
	}
	mode := g.data[off]
	payload := g.data[off+1:]
	tv := g.blocks[b].startTick
	switch {
	case tv <= q1:
		le = 1
	case tv <= q2:
		dst = append(dst, float64(tv)*g.tick)
	default:
		return 0, dst, blockPast
	}
	nd := g.blockLen(b) - 1
	switch {
	case mode == segModeVarint:
		pos := 0
		for j := 0; j < nd; j++ {
			d, k := binary.Uvarint(payload[pos:])
			if k <= 0 {
				return le, dst, blockCorrupt
			}
			pos += k
			tv += int64(d)
			switch {
			case tv <= q1:
				le++
			case tv <= q2:
				dst = append(dst, float64(tv)*g.tick)
			default:
				return le, dst, blockPast
			}
		}
	case mode == 0:
		// The whole block shares the start tick, classified above.
		if le == 1 {
			return 1 + nd, dst, blockDone
		}
		for j := 0; j < nd; j++ {
			dst = append(dst, dst[len(dst)-1])
		}
	case int(mode) <= segMaxPackWidth:
		w := int(mode)
		if need := (nd*w + 7) / 8; need > len(payload) {
			return le, dst, blockCorrupt
		}
		mask := uint64(1)<<w - 1
		var acc uint64
		nacc, pos := 0, 0
		for j := 0; j < nd; j++ {
			for nacc < w {
				acc |= uint64(payload[pos]) << nacc
				pos++
				nacc += 8
			}
			tv += int64(acc & mask)
			acc >>= w
			nacc -= w
			switch {
			case tv <= q1:
				le++
			case tv <= q2:
				dst = append(dst, float64(tv)*g.tick)
			default:
				return le, dst, blockPast
			}
		}
	default:
		return le, dst, blockCorrupt
	}
	return le, dst, blockDone
}

// decodeBlock reconstructs block b's timestamps into buf and returns
// the event count, or -1 on structural corruption: scanBlock with both
// bounds open.
func (g *segment) decodeBlock(b int, buf *[segBlockLen]float64) int {
	le, out, end := g.scanBlock(b, math.MinInt64, math.MaxInt64, buf[:0])
	if end == blockCorrupt || le != 0 { // le: a start tick of MinInt64, which no seal writes
		return -1
	}
	return len(out)
}

// tickLE returns the largest tick value whose reconstructed timestamp
// is ≤ t, for g.first ≤ t < g.last. floor(t/tick) can be off by an ulp,
// so it is nudged until exact; the bounds on t keep q within the
// segment's tick range (|q| < 2⁶², the quantize guard), so the int64
// conversion is safe.
func (g *segment) tickLE(t float64) int64 {
	q := int64(math.Floor(t / g.tick))
	for float64(q)*g.tick > t {
		q--
	}
	for float64(q+1)*g.tick <= t {
		q++
	}
	return q
}

// blockOf returns the last block whose first tick is ≤ q, or -1.
func (g *segment) blockOf(q int64) int {
	lo, hi := 0, len(g.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.blocks[mid].startTick > q {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

// countLE returns the number of segment events with timestamp ≤ t: a
// skip-index binary search plus at most one partial block scan. The
// scan runs in the tick domain — the threshold is converted to a tick
// value once, and the encoded deltas are walked as integers with an
// early exit at the first event past it — so a lookup never
// materializes a block.
func (g *segment) countLE(t float64) int {
	if g.n == 0 || t < g.first {
		return 0
	}
	if t >= g.last || math.IsNaN(t) {
		// NaN compares false everywhere, matching the hot path's
		// sort-search result of "all events ≤ t".
		return g.n
	}
	if g.raw != nil {
		return countLE(g.raw, t)
	}
	q := g.tickLE(t)
	b := g.blockOf(q)
	if b < 0 {
		return 0
	}
	cnt, ok := g.countBlockLE(b, q)
	if !ok { // corrupt; validated segments never reach this
		return b * segBlockLen
	}
	return b*segBlockLen + cnt
}

// countBlockLE counts events in block b with tick value ≤ q, walking
// the encoded deltas directly and stopping at the first event past q.
func (g *segment) countBlockLE(b int, q int64) (cnt int, ok bool) {
	blen := g.blockLen(b)
	off := int(g.blocks[b].off)
	if off >= len(g.data) {
		return 0, false
	}
	mode := g.data[off]
	payload := g.data[off+1:]
	tv := g.blocks[b].startTick
	if tv > q {
		return 0, true
	}
	cnt = 1
	nd := blen - 1
	switch {
	case mode == segModeVarint:
		pos := 0
		for j := 0; j < nd; j++ {
			d, k := binary.Uvarint(payload[pos:])
			if k <= 0 {
				return cnt, false
			}
			pos += k
			tv += int64(d)
			if tv > q {
				return cnt, true
			}
			cnt++
		}
	case mode == 0:
		// The whole block shares the start tick, already known ≤ q.
		return blen, true
	case int(mode) <= segMaxPackWidth:
		w := int(mode)
		if need := (nd*w + 7) / 8; need > len(payload) {
			return cnt, false
		}
		mask := uint64(1)<<w - 1
		var acc uint64
		nacc, pos := 0, 0
		for j := 0; j < nd; j++ {
			for nacc < w {
				acc |= uint64(payload[pos]) << nacc
				pos++
				nacc += 8
			}
			tv += int64(acc & mask)
			acc >>= w
			nacc -= w
			if tv > q {
				return cnt, true
			}
			cnt++
		}
	default:
		return cnt, false
	}
	return cnt, true
}

// window is the per-direction cursor of a static query (DESIGN.md §12):
// one walk that returns how many segment events are ≤ t1 — exactly
// countLE(t1), boundary conventions included — and appends the
// timestamps in (t1, t2] to dst, crossing block boundaries and stopping
// at the first event past t2. more is false once such an event was
// seen: nothing later in the direction can be in the window.
func (g *segment) window(t1, t2 float64, dst []float64) (le int, out []float64, more bool) {
	if t1 >= g.last || math.IsNaN(t1) {
		return g.n, dst, true
	}
	if g.raw != nil {
		lo, hi := countLE(g.raw, t1), countLE(g.raw, t2)
		if hi < lo {
			hi = lo
		}
		return lo, append(dst, g.raw[lo:hi]...), hi == g.n
	}
	// Tick bounds of the window. Before the first event nothing is ≤ t;
	// at or past the last (or NaN) everything is — countLE's early-outs.
	q1, b := int64(math.MinInt64), 0
	if t1 >= g.first {
		q1 = g.tickLE(t1)
		if b = g.blockOf(q1); b < 0 {
			b = 0
		}
	}
	q2 := int64(math.MaxInt64)
	if t2 < g.first {
		q2 = math.MinInt64
	} else if t2 < g.last {
		q2 = g.tickLE(t2)
	}
	le = b * segBlockLen
	for ; b < len(g.blocks); b++ {
		var n int
		var end blockEnd
		n, dst, end = g.scanBlock(b, q1, q2, dst)
		le += n
		if end != blockDone {
			return le, dst, false
		}
	}
	return le, dst, true
}

// appendTimes materializes every segment timestamp onto dst, in order.
func (g *segment) appendTimes(dst []float64) []float64 {
	if g.raw != nil {
		return append(dst, g.raw...)
	}
	var buf [segBlockLen]float64
	for b := 0; b < g.numBlocks(); b++ {
		n := g.decodeBlock(b, &buf)
		if n < 0 {
			break
		}
		dst = append(dst, buf[:n]...)
	}
	return dst
}

// memBytes is the resident footprint of the segment: payload, skip
// index, raw fallback, and struct overhead.
func (g *segment) memBytes() int {
	return segStructBytes + cap(g.data) + segIndexEntrySize*len(g.blocks) + 8*cap(g.raw)
}

// validate fully decodes the segment and checks every structural
// invariant countLE depends on: block count, per-block monotonicity,
// continuity across blocks, skip-entry/first/last consistency, and the
// event count. prev is the last timestamp sealed before this segment
// (−Inf for the first).
func (g *segment) validate(prev float64) (lastT float64, err error) {
	if g.n <= 0 {
		return 0, fmt.Errorf("core: segment with %d events", g.n)
	}
	if g.raw != nil {
		if len(g.raw) != g.n {
			return 0, fmt.Errorf("core: raw segment holds %d timestamps, claims %d", len(g.raw), g.n)
		}
		if !sort.Float64sAreSorted(g.raw) {
			return 0, fmt.Errorf("core: raw segment out of order")
		}
		if g.raw[0] < prev {
			return 0, fmt.Errorf("core: segment starts at %v before previous seal %v", g.raw[0], prev)
		}
		if g.first != g.raw[0] || g.last != g.raw[len(g.raw)-1] {
			return 0, fmt.Errorf("core: raw segment first/last metadata mismatch")
		}
		return g.last, nil
	}
	if g.tick <= 0 || math.IsNaN(g.tick) || math.IsInf(g.tick, 0) {
		return 0, fmt.Errorf("core: segment tick %v invalid", g.tick)
	}
	if want := (g.n + segBlockLen - 1) / segBlockLen; len(g.blocks) != want {
		return 0, fmt.Errorf("core: segment has %d skip blocks, want %d for %d events", len(g.blocks), want, g.n)
	}
	var buf [segBlockLen]float64
	total := 0
	cur := prev
	for b := 0; b < g.numBlocks(); b++ {
		n := g.decodeBlock(b, &buf)
		if n < 0 {
			return 0, fmt.Errorf("core: segment block %d undecodable", b)
		}
		if buf[0] != float64(g.blocks[b].startTick)*g.tick {
			return 0, fmt.Errorf("core: segment block %d start-tick mismatch", b)
		}
		for i := 0; i < n; i++ {
			if buf[i] < cur {
				return 0, fmt.Errorf("core: segment block %d out of order at event %d", b, i)
			}
			cur = buf[i]
		}
		if b == 0 && buf[0] != g.first {
			return 0, fmt.Errorf("core: segment first metadata mismatch")
		}
		total += n
	}
	if total != g.n {
		return 0, fmt.Errorf("core: segment decodes to %d events, claims %d", total, g.n)
	}
	if cur != g.last {
		return 0, fmt.Errorf("core: segment last metadata mismatch")
	}
	return cur, nil
}
