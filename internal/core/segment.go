package core

import (
	"bytes"
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
// falls back to a raw segment otherwise), encoded per block of
// segBlockLen events — Elias–Fano offsets from the block's first tick,
// or fixed-width or varint deltas where those are smaller — and indexed
// by a per-block skip entry (first tick + byte offset), so countIn(t1,t2)
// is one skip-index binary search, a search for t2's block from t1's
// forward, and two ranks or partial block walks — one payload split
// where both bounds share an Elias–Fano block — never a full decode.
//
// Segments are immutable after sealing: they are shared freely across
// Tracker snapshots, store snapshots (ExportSnapshot), and checkpoint
// images without copying or synchronization.

// segBlockLen is the number of events per skip-index block. 128 keeps
// the per-block cost of a query bounded — an Elias–Fano rank reads at
// most 6 words of high bits and one bucket of low parts, a delta block
// is walked for at most 127 deltas — while holding the index overhead to
// one 16-byte entry per 128 events.
const segBlockLen = 128

// segModeVarint marks a block payload as varint-encoded deltas and
// segModeEF as Elias–Fano-coded offsets from the block's start tick
// (see appendEF); any other mode byte w ≤ segMaxPackWidth means
// fixed-width bit-packing at w bits per delta (w = 0: every event in the
// block shares the block's start tick).
const (
	segModeVarint     = 0xFF
	segModeEF         = 0xFE
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

// Elias–Fano block payload (mode segModeEF), for the nd = blockLen−1
// events after the block's first, as offsets from its start tick:
//
//	l u8 | hbytes u8 | lows (nd·l bits, appendPacked) | highs (hbytes bytes)
//
// Offset j keeps its low l bits in lows and sets bit (off_j>>l)+j of
// highs: bucket h of the high parts reads as one 1 per member followed
// by a 0. count(≤ x) is then a select over highs — the ones before the
// (x>>l)-th zero are the members of the lower buckets — plus a scan of
// the one bucket x falls in, and never touches the other low parts.

// efShape returns the low-part width and the size of highs that the
// encoder picks for nd offsets of which the largest is maxOff:
// l = ⌊log₂(maxOff/nd)⌋, so highs holds between nd and 3·nd bits — at
// most 6 words, and hbytes ≤ 48 always fits its byte. ok is false where
// the mode is not offered: an empty block, or low parts wider than
// appendPacked packs.
func efShape(nd int, maxOff uint64) (l, hbytes int, ok bool) {
	if nd == 0 {
		return 0, 0, false
	}
	if q := maxOff / uint64(nd); q > 1 {
		l = bits.Len64(q) - 1
	}
	if l > segMaxPackWidth {
		return 0, 0, false
	}
	return l, int((maxOff>>l + uint64(nd) + 7) / 8), true
}

// appendEF appends the Elias–Fano payload of offs (non-decreasing,
// non-empty) in the shape efShape gave for them.
func appendEF(dst []byte, offs []uint64, l, hbytes int) []byte {
	dst = append(dst, byte(l), byte(hbytes))
	var lows [segBlockLen]uint64
	for j, o := range offs {
		lows[j] = o & (1<<l - 1)
	}
	dst = appendPacked(dst, lows[:len(offs)], l)
	var zero [(3*segBlockLen + 7) / 8]byte
	highs := len(dst)
	dst = append(dst, zero[:hbytes]...)
	for j, o := range offs {
		p := int(o>>l) + j
		dst[highs+p>>3] |= 1 << (p & 7)
	}
	return dst
}

// efPayload splits the Elias–Fano payload of a block of nd offsets.
// lows runs on to the end of the segment's data, so that efLow can load
// a whole word wherever one is there; highs is exactly hbytes long. ok
// is false when the header or the sizes it implies do not fit.
func efPayload(payload []byte, nd int) (lows, highs []byte, l uint, ok bool) {
	if len(payload) < 2 || payload[0] > segMaxPackWidth {
		return nil, nil, 0, false
	}
	l = uint(payload[0])
	lo := 2 + (nd*int(l)+7)/8
	hi := lo + int(payload[1])
	if hi > len(payload) {
		return nil, nil, 0, false
	}
	return payload[2:], payload[lo:hi], l, true
}

// load64 returns the 8 bytes of p at byte i as a little-endian word:
// one unaligned load wherever the 8 bytes are there, assembled bytewise,
// zero past the end, where the load would run off p.
func load64(p []byte, i int) uint64 {
	if i+8 <= len(p) {
		return binary.LittleEndian.Uint64(p[i:])
	}
	var v uint64
	for k := len(p) - 1; k >= i; k-- {
		v = v<<8 | uint64(p[k])
	}
	return v
}

// efLow returns the low part of offset j: l ≤ 32 bits at bit j·l of
// lows, which one word loaded at the byte they start in always holds
// (7 bits of shift + 32).
func efLow(lows []byte, j int, l uint) uint64 {
	bit := uint(j) * l
	return load64(lows, int(bit>>3)) >> (bit & 7) & (1<<l - 1)
}

// select64 returns the position of the r-th (0-based) set bit of w,
// which must have more than r of them.
func select64(w uint64, r int) int {
	pos := 0
	if c := bits.OnesCount32(uint32(w)); r >= c {
		r -= c
		w >>= 32
		pos = 32
	}
	if c := bits.OnesCount16(uint16(w)); r >= c {
		r -= c
		w >>= 16
		pos += 16
	}
	for ; r > 0; r-- {
		w &= w - 1
	}
	return pos + bits.TrailingZeros64(w)
}

// efRank returns how many of the block's offsets are ≤ x, and the bit
// of highs at which the first offset past x — or the end of x's bucket —
// stands, where an enumeration of the later offsets resumes. It finds
// the (x>>l)-th zero of highs by word popcounts; the ones before it are
// the offsets of lower buckets, and the bucket that starts after it is
// scanned comparing low parts. A bucket number past the last zero means
// every offset is below x.
func efRank(lows, highs []byte, l uint, x uint64) (cnt, pos int) {
	if hx := x >> l; hx > 0 {
		need := int(min(hx, uint64(8*len(highs))+1)) // highs holds fewer zeros than that
		for k := 0; ; k++ {
			if 8*k >= len(highs) {
				return cnt, 8 * len(highs)
			}
			w := load64(highs, 8*k)
			ones := bits.OnesCount64(w)
			if need > 64-ones {
				need -= 64 - ones
				cnt += ones
				continue
			}
			r := select64(^w, need-1)
			cnt += r - (need - 1)
			pos = 64*k + r + 1
			break
		}
	}
	xlow := x & (1<<l - 1)
	for pos < 8*len(highs) && highs[pos>>3]>>(pos&7)&1 != 0 && (l == 0 || efLow(lows, cnt, l) <= xlow) {
		cnt++
		pos++
	}
	return cnt, pos
}

// sealSegment freezes ts (sorted, non-decreasing, non-empty) into an
// immutable segment quantized to tick. Each block's payload is encoded
// as Elias–Fano offsets, fixed-width bit-packed deltas or varint deltas,
// whichever is smallest — a tie goes to Elias–Fano, which counts
// fastest, then to bit-packing — and a block of one repeated tick as
// mode 0, which has no payload. When any timestamp does not reconstruct
// exactly from the tick grid the whole segment falls back to raw
// storage, preserving bit-identical answers unconditionally.
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
	var deltas, offs [segBlockLen]uint64
	var tmp [binary.MaxVarintLen64]byte
	var modes [len(mBlockModes)]uint64
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
			offs[j] = uint64(ticks[lo+1+j] - ticks[lo])
			if d > maxD {
				maxD = d
			}
			vsize += uvarintLen(d)
		}
		w := bits.Len64(maxD)
		psize := (nd*w + 7) / 8
		l, hbytes, efOK := efShape(nd, uint64(ticks[hi-1]-ticks[lo]))
		esize := 2 + (nd*l+7)/8 + hbytes
		switch {
		case w == 0:
			modes[blockWidth0]++
			g.data = append(g.data, 0)
		case efOK && esize <= vsize && (w > segMaxPackWidth || esize <= psize):
			modes[blockEF]++
			g.data = append(g.data, segModeEF)
			g.data = appendEF(g.data, offs[:nd], l, hbytes)
		case w <= segMaxPackWidth && psize <= vsize:
			modes[blockPacked]++
			g.data = append(g.data, byte(w))
			g.data = appendPacked(g.data, deltas[:nd], w)
		default:
			modes[blockVarint]++
			g.data = append(g.data, segModeVarint)
			for j := 0; j < nd; j++ {
				g.data = append(g.data, tmp[:binary.PutUvarint(tmp[:], deltas[j])]...)
			}
		}
	}
	for m, n := range modes {
		mBlockModes[m].Add(n)
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

// scanBlock is countBlockLE carried on through a time window: reading
// block b's encoded form in the tick domain, it counts the events with
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
	case mode == segModeEF:
		lows, highs, l, ok := efPayload(payload, nd)
		if !ok {
			return le, dst, blockCorrupt
		}
		// The rank that counts the events ≤ q1 also says where in highs
		// the first event past q1 stands; from there the set bits are the
		// events, in order, bit p holding event j's high part as p − j.
		j, pos := 0, 0
		if le == 1 {
			j, pos = efRank(lows, highs, l, uint64(q1-tv))
			le += j
		}
		for k := pos >> 6; 8*k < len(highs); k++ {
			w := load64(highs, 8*k)
			if k == pos>>6 {
				w &^= 1<<(pos&63) - 1
			}
			for ; w != 0; w &= w - 1 {
				if j >= nd { // more ones than events
					return le, dst, blockCorrupt
				}
				p := 64*k + bits.TrailingZeros64(w)
				ev := tv + int64(uint64(p-j)<<l|efLow(lows, j, l))
				if ev > q2 {
					return le, dst, blockPast
				}
				dst = append(dst, float64(ev)*g.tick)
				j++
			}
		}
		if j != nd {
			return le, dst, blockCorrupt
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

// blockOf returns the last block, from block from on, whose first tick
// is ≤ q, or from−1 when there is none.
func (g *segment) blockOf(q int64, from int) int {
	lo, hi := from, len(g.blocks)
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
// skip-index binary search plus one count inside a block. The count runs
// in the tick domain — the threshold is converted to a tick value once,
// and the block answers it in its encoded form, by an Elias–Fano rank or
// by walking deltas as integers with an early exit at the first event
// past it — so a lookup never materializes a block.
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
	b := g.blockOf(q, 0)
	if b < 0 {
		return 0
	}
	cnt, ok := g.countBlockLE(b, q)
	if !ok { // corrupt; validated segments never reach this
		mCorruptBlocks.Inc()
		return b * segBlockLen
	}
	return b*segBlockLen + cnt
}

// countIn returns countLE(t2) − countLE(t1) from one descent: a tickLE
// per bound, t1's block, t2's searched from there on, and one count per
// bound (countBlockIn). Any pair outside that shape — NaN, t1 > t2, a
// bound before first or at/after last, a raw segment, a corrupt block —
// takes the two plain counts.
func (g *segment) countIn(t1, t2 float64) int {
	if g.raw == nil && g.first <= t1 && t1 <= t2 && t2 < g.last {
		q1, q2 := g.tickLE(t1), g.tickLE(t2)
		if b1 := g.blockOf(q1, 0); b1 >= 0 {
			b2 := g.blockOf(q2, b1+1)
			if c1, c2, ok := g.countBlockIn(b1, b2, q1, q2); ok {
				return (b2-b1)*segBlockLen + c2 - c1
			}
		}
	}
	return g.countLE(t2) - g.countLE(t1)
}

// countBlockIn is countBlockLE(b1, q1) and countBlockLE(b2, q2), for
// b1 ≤ b2, q1 ≤ q2 and block b1 starting by q1: where both are one
// Elias–Fano block, one payload split serves both ranks.
func (g *segment) countBlockIn(b1, b2 int, q1, q2 int64) (c1, c2 int, ok bool) {
	off, tv := int(g.blocks[b1].off), g.blocks[b1].startTick
	if b1 == b2 && off < len(g.data) && g.data[off] == segModeEF {
		nd := g.blockLen(b1) - 1
		if lows, highs, l, split := efPayload(g.data[off+1:], nd); split {
			n1, _ := efRank(lows, highs, l, uint64(q1-tv))
			n2, _ := efRank(lows, highs, l, uint64(q2-tv))
			return 1 + n1, 1 + n2, n1 <= nd && n2 <= nd
		}
	}
	if c1, ok = g.countBlockLE(b1, q1); ok {
		c2, ok = g.countBlockLE(b2, q2)
	}
	return c1, c2, ok
}

// countBlockLE counts events in block b with tick value ≤ q on the
// encoded form: a rank over an Elias–Fano block, a walk of the deltas
// that stops at the first event past q over the others.
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
	case mode == segModeEF:
		lows, highs, l, ok := efPayload(payload, nd)
		if !ok {
			return cnt, false
		}
		n, _ := efRank(lows, highs, l, uint64(q-tv))
		if n > nd {
			return cnt, false
		}
		return cnt + n, true
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
		if b = g.blockOf(q1, 0); b < 0 {
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

// efCanonical reports whether block b, of mode segModeEF, is byte for
// byte what sealSegment writes for the offsets it holds: exactly nd ones
// in highs, non-decreasing offsets, the l and hbytes efShape picks for
// them, zero padding. A canonical payload is an encoder output, which is
// what makes efRank and scanBlock's enumeration agree on it.
func (g *segment) efCanonical(b int) bool {
	nd := g.blockLen(b) - 1
	payload := g.data[g.blocks[b].off+1:]
	lows, highs, l, ok := efPayload(payload, nd)
	if !ok || nd == 0 {
		return false
	}
	var offs [segBlockLen]uint64
	j := 0
	for p := 0; p < 8*len(highs); p++ {
		if highs[p>>3]>>(p&7)&1 == 0 {
			continue
		}
		if j == nd {
			return false
		}
		offs[j] = uint64(p-j)<<l | efLow(lows, j, l)
		if j > 0 && offs[j] < offs[j-1] {
			return false
		}
		j++
	}
	if j != nd {
		return false
	}
	cl, chbytes, ok := efShape(nd, offs[nd-1])
	if !ok || uint(cl) != l || chbytes != len(highs) {
		return false
	}
	var buf [2 + segBlockLen*segMaxPackWidth/8 + 3*segBlockLen/8 + 1]byte
	enc := appendEF(buf[:0], offs[:nd], cl, chbytes)
	return bytes.Equal(enc, payload[:len(enc)])
}

// validate fully decodes the segment and checks every structural
// invariant countLE depends on: block count, per-block monotonicity,
// continuity across blocks, skip-entry/first/last consistency, the
// event count, and that every Elias–Fano block is canonical. prev is the
// last timestamp sealed before this segment (−Inf for the first).
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
		if g.data[g.blocks[b].off] == segModeEF && !g.efCanonical(b) {
			return 0, fmt.Errorf("core: segment block %d Elias–Fano payload not canonical", b)
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
