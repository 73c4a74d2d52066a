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
// (DESIGN.md §12): one immutable sealed run per tracked edge, holding
// both directions' sealed crossings merged in time order. Timestamps are
// quantized to a fixed tick (losslessly — the seal verifies exact
// reconstruction and keeps the run raw otherwise), encoded per block of
// segBlockLen events — Elias–Fano offsets from the block's first tick,
// or fixed-width or varint deltas where those are smaller — and indexed
// by a per-block skip entry (first tick, byte offset, the forward events
// before the block, and one direction bit per event of the block). A
// count at t is then one descent — a skip-index binary search and one
// rank or partial block walk — which gives the rank p of t in the run;
// the forward count f is the entry's count plus one popcount, and the
// reverse count is p − f, so a perimeter term in − out costs one search,
// not one a direction. Nothing is ever decoded whole on the read path.
//
// Runs are immutable after sealing: they are shared freely across
// Tracker snapshots, store snapshots (ExportSnapshot), and checkpoint
// images without copying or synchronization.

// segBlockLen is the number of events per skip-index block. 128 keeps
// the per-block cost of a query bounded — an Elias–Fano rank reads at
// most 6 words of high bits and one bucket of low parts, a delta block
// is walked for at most 127 deltas — and the direction bits of a block
// to two words.
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
	segStructBytes    = 160 // the run struct, in its allocation size class
	segIndexEntrySize = 32  // one runBlock
)

// runBlock is one skip-index entry: the tick value of the block's first
// event, the byte offset of the block's payload in run.data, the number
// of forward events before the block, and the block's direction bits —
// bit j of dir[j/64] set when event j of the block is forward. A raw
// run keeps only fwd and dir.
type runBlock struct {
	startTick int64
	off       uint32
	fwd       uint32
	dir       [2]uint64
}

// run is the immutable sealed prefix of one tracked edge: both
// directions' sealed crossings in one non-decreasing sequence. Exactly
// one of data or raw holds the timestamps: raw is the lossless fallback
// for a run that does not quantize exactly to the tick. Per direction
// every sealed timestamp precedes every hot one; across directions the
// run makes no such promise (one direction's cold prefix may be sealed
// while the other keeps older events hot).
type run struct {
	// n is the event count, nfwd the forward events among them.
	n, nfwd int
	tick    float64
	blocks  []runBlock
	data    []byte
	raw     []float64
	// first and last are the first and last timestamps of the run;
	// dirFirst[d] and dirLast[d] those of direction d (dirIndex), 0 for
	// a direction with no sealed events.
	first, last       float64
	dirFirst, dirLast [2]float64
	// seals is the number of seal passes that built the run (a decoded
	// run counts as one).
	seals int
}

// dirLen returns the number of sealed events of one direction
// (nil-safe).
func (r *run) dirLen(forward bool) int {
	switch {
	case r == nil:
		return 0
	case forward:
		return r.nfwd
	}
	return r.n - r.nfwd
}

// len returns the number of sealed events (nil-safe).
func (r *run) len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// fwdRank returns how many of the run's first p events are forward:
// the count of p's block plus one popcount of its direction bits.
func (r *run) fwdRank(p int) int {
	if p <= 0 {
		return 0
	}
	if p >= r.n {
		return r.nfwd
	}
	b := &r.blocks[p/segBlockLen]
	j := uint(p % segBlockLen)
	if j < 64 {
		return int(b.fwd) + bits.OnesCount64(b.dir[0]&(1<<j-1))
	}
	return int(b.fwd) + bits.OnesCount64(b.dir[0]) + bits.OnesCount64(b.dir[1]&(1<<(j-64)-1))
}

// isFwd reports whether event i of the run is forward.
func (r *run) isFwd(i int) bool {
	return r.blocks[i/segBlockLen].dir[i/64%2]>>(i%64)&1 != 0
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
// float64(tick_i)*tick must equal ts[i] bit for bit, and appends the
// tick values to dst. ok is false when any timestamp is off-grid (the
// caller keeps the run raw instead).
func quantize(dst []int64, ts []float64, tick float64) ([]int64, bool) {
	for _, t := range ts {
		q := math.Round(t / tick)
		if math.IsNaN(q) || math.Abs(q) >= 1<<62 {
			return dst, false
		}
		tv := int64(q)
		if float64(tv)*tick != t {
			return dst, false
		}
		dst = append(dst, tv)
	}
	return dst, true
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
// lows runs on to the end of the run's data, so that efLow can load
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

// appendBlock appends the encoded form of one block — mode byte and
// payload — given its ticks (non-decreasing, non-empty), tallying the
// mode in modes. The payload is Elias–Fano offsets, fixed-width
// bit-packed deltas or varint deltas, whichever is smallest — a tie
// goes to Elias–Fano, which counts fastest, then to bit-packing — and a
// block of one repeated tick is mode 0, which has no payload.
func appendBlock(data []byte, ticks []int64, modes *[len(mBlockModes)]uint64) []byte {
	var deltas, offs [segBlockLen]uint64
	var tmp [binary.MaxVarintLen64]byte
	nd := len(ticks) - 1
	maxD := uint64(0)
	vsize := 0
	for j := 0; j < nd; j++ {
		d := uint64(ticks[1+j] - ticks[j])
		deltas[j] = d
		offs[j] = uint64(ticks[1+j] - ticks[0])
		if d > maxD {
			maxD = d
		}
		vsize += uvarintLen(d)
	}
	w := bits.Len64(maxD)
	psize := (nd*w + 7) / 8
	l, hbytes, efOK := efShape(nd, uint64(ticks[nd]-ticks[0]))
	esize := 2 + (nd*l+7)/8 + hbytes
	switch {
	case w == 0:
		modes[blockWidth0]++
		data = append(data, 0)
	case efOK && esize <= vsize && (w > segMaxPackWidth || esize <= psize):
		modes[blockEF]++
		data = append(data, segModeEF)
		data = appendEF(data, offs[:nd], l, hbytes)
	case w <= segMaxPackWidth && psize <= vsize:
		modes[blockPacked]++
		data = append(data, byte(w))
		data = appendPacked(data, deltas[:nd], w)
	default:
		modes[blockVarint]++
		data = append(data, segModeVarint)
		for j := 0; j < nd; j++ {
			data = append(data, tmp[:binary.PutUvarint(tmp[:], deltas[j])]...)
		}
	}
	return data
}

// numBlocks returns the skip-index block count.
func (r *run) numBlocks() int { return len(r.blocks) }

// blockLen returns the number of events in block b.
func (r *run) blockLen(b int) int {
	if (b+1)*segBlockLen <= r.n {
		return segBlockLen
	}
	return r.n - b*segBlockLen
}

// blockEnd says why a block scan stopped.
type blockEnd uint8

const (
	// blockDone: the block ran out with no event past the upper bound,
	// so the scan may continue into the next block.
	blockDone blockEnd = iota
	// blockPast: the scan stopped at the first event past the upper
	// bound; nothing later in the run can be at or below it.
	blockPast
	// blockCorrupt: the payload is structurally broken (defensive:
	// runs reaching the serving path have been validated, see
	// validate).
	blockCorrupt
)

// scanBlock is countBlockLE carried on through a time window: reading
// block b's encoded form in the tick domain, it counts the events with
// tick ≤ q1, appends the ticks of the events with q1 < tick ≤ q2 to dst,
// and stops at the first event past q2 — so a window decodes exactly
// the events it yields, never a whole block. It is the one block
// decoder: a consumer that wants timestamps multiplies by the run's tick
// (window, decodeBlock), the static kernel's grid path adds the ticks
// into its slots as they are.
func (r *run) scanBlock(b int, q1, q2 int64, dst []int64) (le int, out []int64, end blockEnd) {
	off := int(r.blocks[b].off)
	if off >= len(r.data) {
		return 0, dst, blockCorrupt
	}
	mode := r.data[off]
	payload := r.data[off+1:]
	tv := r.blocks[b].startTick
	switch {
	case tv <= q1:
		le = 1
	case tv <= q2:
		dst = append(dst, tv)
	default:
		return 0, dst, blockPast
	}
	nd := r.blockLen(b) - 1
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
				dst = append(dst, tv)
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
				dst = append(dst, ev)
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
				dst = append(dst, tv)
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
func (r *run) decodeBlock(b int, buf *[segBlockLen]float64) int {
	var ticks [segBlockLen]int64
	le, out, end := r.scanBlock(b, math.MinInt64, math.MaxInt64, ticks[:0])
	if end == blockCorrupt || le != 0 { // le: a start tick of MinInt64, which no seal writes
		return -1
	}
	for i, tv := range out {
		buf[i] = float64(tv) * r.tick
	}
	return len(out)
}

// tickLE returns the largest tick value whose reconstructed timestamp
// is ≤ t, for r.first ≤ t < r.last: the bounds on t keep it within the
// run's tick range (|q| < 2⁶², the quantize guard), so floorTick's int64
// conversion is safe.
func (r *run) tickLE(t float64) int64 { return floorTick(t, r.tick) }

// floorTick returns the largest q with float64(q)*tick ≤ t, for a t
// whose t/tick lies well inside the int64 range. floor(t/tick) can be
// off by an ulp, so it is nudged until exact.
func floorTick(t, tick float64) int64 {
	q := int64(math.Floor(t / tick))
	for float64(q)*tick > t {
		q--
	}
	for float64(q+1)*tick <= t {
		q++
	}
	return q
}

// blockOf returns the last block, from block from on, whose first tick
// is ≤ q, or from−1 when there is none.
func (r *run) blockOf(q int64, from int) int {
	lo, hi := from, len(r.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.blocks[mid].startTick > q {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

// countLE returns the number of run events with timestamp ≤ t
// (nil-safe): a skip-index binary search plus one count inside a block.
// The count runs in the tick domain — the threshold is converted to a
// tick value once, and the block answers it in its encoded form, by an
// Elias–Fano rank or by walking deltas as integers with an early exit at
// the first event past it — so a lookup never materializes a block.
func (r *run) countLE(t float64) int {
	if r == nil || t < r.first {
		return 0
	}
	if t >= r.last || math.IsNaN(t) {
		// NaN compares false everywhere, matching the hot path's
		// sort-search result of "all events ≤ t".
		return r.n
	}
	if r.raw != nil {
		return countLE(r.raw, t)
	}
	q := r.tickLE(t)
	b := r.blockOf(q, 0)
	if b < 0 {
		return 0
	}
	cnt, ok := r.countBlockLE(b, q)
	if !ok { // corrupt; validated runs never reach this
		mCorruptBlocks.Inc()
		return b * segBlockLen
	}
	return b*segBlockLen + cnt
}

// countPair returns countLE(t1) and countLE(t2) from one descent
// (nil-safe): a tickLE per bound, t1's block, t2's searched from there
// on, and one count per bound (countBlockIn). Any pair outside that
// shape — NaN, t1 > t2, a bound before first or at/after last, a raw
// run, a corrupt block — takes the two plain counts.
func (r *run) countPair(t1, t2 float64) (int, int) {
	if r != nil && r.raw == nil && r.first <= t1 && t1 <= t2 && t2 < r.last {
		q1, q2 := r.tickLE(t1), r.tickLE(t2)
		if b1 := r.blockOf(q1, 0); b1 >= 0 {
			b2 := r.blockOf(q2, b1+1)
			if c1, c2, ok := r.countBlockIn(b1, b2, q1, q2); ok {
				return b1*segBlockLen + c1, b2*segBlockLen + c2
			}
		}
	}
	return r.countLE(t1), r.countLE(t2)
}

// countDir returns the number of sealed events of one direction with
// timestamp ≤ t (nil-safe): 0 before the direction's first, all of them
// from its last on, and otherwise the rank p of t in the run split by
// fwdRank.
func (r *run) countDir(forward bool, t float64) int {
	nd := r.dirLen(forward)
	if nd == 0 || t < r.dirFirst[dirIndex(forward)] {
		return 0
	}
	if t >= r.dirLast[dirIndex(forward)] {
		return nd
	}
	p := r.countLE(t)
	if f := r.fwdRank(p); forward {
		return f
	} else {
		return p - f
	}
}

// countBlockIn is countBlockLE(b1, q1) and countBlockLE(b2, q2), for
// b1 ≤ b2, q1 ≤ q2 and block b1 starting by q1: where both are one
// Elias–Fano block, one payload split serves both ranks.
func (r *run) countBlockIn(b1, b2 int, q1, q2 int64) (c1, c2 int, ok bool) {
	off, tv := int(r.blocks[b1].off), r.blocks[b1].startTick
	if b1 == b2 && off < len(r.data) && r.data[off] == segModeEF {
		nd := r.blockLen(b1) - 1
		if lows, highs, l, split := efPayload(r.data[off+1:], nd); split {
			n1, _ := efRank(lows, highs, l, uint64(q1-tv))
			n2, _ := efRank(lows, highs, l, uint64(q2-tv))
			return 1 + n1, 1 + n2, n1 <= nd && n2 <= nd
		}
	}
	if c1, ok = r.countBlockLE(b1, q1); ok {
		c2, ok = r.countBlockLE(b2, q2)
	}
	return c1, c2, ok
}

// countBlockLE counts events in block b with tick value ≤ q on the
// encoded form: a rank over an Elias–Fano block, a walk of the deltas
// that stops at the first event past q over the others.
func (r *run) countBlockLE(b int, q int64) (cnt int, ok bool) {
	blen := r.blockLen(b)
	off := int(r.blocks[b].off)
	if off >= len(r.data) {
		return 0, false
	}
	mode := r.data[off]
	payload := r.data[off+1:]
	tv := r.blocks[b].startTick
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

// window is the run's cursor for a static query (DESIGN.md §12): one
// walk (nil-safe) that returns how many run events are ≤ t1 — exactly
// countLE(t1), boundary conventions included — and appends the
// timestamps in (t1, t2] to dst, crossing block boundaries and stopping
// at the first event past t2. The events appended are the run's events
// le, le+1, … in order, so isFwd(le+i) is the direction of out[i].
func (r *run) window(t1, t2 float64, dst []float64) (le int, out []float64) {
	if r == nil {
		return 0, dst
	}
	if t1 >= r.last || math.IsNaN(t1) {
		return r.n, dst
	}
	if r.raw != nil {
		lo, hi := countLE(r.raw, t1), countLE(r.raw, t2)
		if hi < lo {
			hi = lo
		}
		return lo, append(dst, r.raw[lo:hi]...)
	}
	// Tick bounds of the window. Before the first event nothing is ≤ t;
	// at or past the last (or NaN) everything is — countLE's early-outs.
	q1, b := int64(math.MinInt64), 0
	if t1 >= r.first {
		q1 = r.tickLE(t1)
		if b = r.blockOf(q1, 0); b < 0 {
			b = 0
		}
	}
	q2 := int64(math.MaxInt64)
	if t2 < r.first {
		q2 = math.MinInt64
	} else if t2 < r.last {
		q2 = r.tickLE(t2)
	}
	le = b * segBlockLen
	var buf [segBlockLen]int64
	for ; b < len(r.blocks); b++ {
		n, ticks, end := r.scanBlock(b, q1, q2, buf[:0])
		le += n
		for _, tv := range ticks {
			dst = append(dst, float64(tv)*r.tick)
		}
		if end != blockDone {
			return le, dst
		}
	}
	return le, dst
}

// appendTimes materializes the run's timestamps from block b on onto
// dst, in order (nil-safe).
func (r *run) appendTimes(b int, dst []float64) []float64 {
	if r == nil {
		return dst
	}
	if r.raw != nil {
		return append(dst, r.raw[b*segBlockLen:]...)
	}
	var buf [segBlockLen]float64
	for ; b < r.numBlocks(); b++ {
		n := r.decodeBlock(b, &buf)
		if n < 0 {
			break
		}
		dst = append(dst, buf[:n]...)
	}
	return dst
}

// appendDir materializes one direction's sealed timestamps onto dst, in
// order (nil-safe).
func (r *run) appendDir(forward bool, dst []float64) []float64 {
	if r.dirLen(forward) == 0 {
		return dst
	}
	all := r.appendTimes(0, make([]float64, 0, r.n))
	for i, t := range all {
		if r.isFwd(i) == forward {
			dst = append(dst, t)
		}
	}
	return dst
}

// memBytes is the resident footprint of the run: payload, skip index,
// raw fallback, and struct overhead (nil-safe).
func (r *run) memBytes() int {
	if r == nil {
		return 0
	}
	return segStructBytes + cap(r.data) + segIndexEntrySize*cap(r.blocks) + 8*cap(r.raw)
}

// efCanonical reports whether block b, of mode segModeEF, is byte for
// byte what appendBlock writes for the offsets it holds: exactly nd ones
// in highs, non-decreasing offsets, the l and hbytes efShape picks for
// them, zero padding. A canonical payload is an encoder output, which is
// what makes efRank and scanBlock's enumeration agree on it.
func (r *run) efCanonical(b int) bool {
	nd := r.blockLen(b) - 1
	payload := r.data[r.blocks[b].off+1:]
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

// validate fully decodes the run and checks every invariant the read
// path depends on: block count, per-block monotonicity, continuity
// across blocks, skip-entry/first/last consistency, every Elias–Fano
// block canonical, the direction bits — none past a block's end, the
// forward counts of the skip index their running sum — and each
// direction's first and last (0 for a direction with no events).
func (r *run) validate() error {
	if r.n <= 0 {
		return fmt.Errorf("core: sealed run with %d events", r.n)
	}
	if want := (r.n + segBlockLen - 1) / segBlockLen; len(r.blocks) != want {
		return fmt.Errorf("core: sealed run has %d skip blocks, want %d for %d events", len(r.blocks), want, r.n)
	}
	fwd := 0
	for b, blk := range r.blocks {
		if n := r.blockLen(b); n < segBlockLen && (n >= 64 && blk.dir[1]>>(n-64) != 0 || n < 64 && (blk.dir[0]>>n != 0 || blk.dir[1] != 0)) {
			return fmt.Errorf("core: sealed run block %d has direction bits past its %d events", b, n)
		}
		if int(blk.fwd) != fwd {
			return fmt.Errorf("core: sealed run block %d counts %d forward events before it, want %d", b, blk.fwd, fwd)
		}
		fwd += bits.OnesCount64(blk.dir[0]) + bits.OnesCount64(blk.dir[1])
	}
	if fwd != r.nfwd {
		return fmt.Errorf("core: sealed run holds %d forward events, claims %d", fwd, r.nfwd)
	}
	ts := r.raw
	if ts == nil {
		if r.tick <= 0 || math.IsNaN(r.tick) || math.IsInf(r.tick, 0) {
			return fmt.Errorf("core: sealed run tick %v invalid", r.tick)
		}
		var buf [segBlockLen]float64
		ts = make([]float64, 0, r.n)
		for b := 0; b < r.numBlocks(); b++ {
			n := r.decodeBlock(b, &buf)
			if n < 0 {
				return fmt.Errorf("core: sealed run block %d undecodable", b)
			}
			if r.data[r.blocks[b].off] == segModeEF && !r.efCanonical(b) {
				return fmt.Errorf("core: sealed run block %d Elias–Fano payload not canonical", b)
			}
			if buf[0] != float64(r.blocks[b].startTick)*r.tick || b > 0 && r.blocks[b].startTick < r.blocks[b-1].startTick {
				return fmt.Errorf("core: sealed run block %d start-tick mismatch", b)
			}
			ts = append(ts, buf[:n]...)
		}
	}
	if len(ts) != r.n {
		return fmt.Errorf("core: sealed run decodes to %d events, claims %d", len(ts), r.n)
	}
	// A sorted slice holds its NaNs first, and first would then be NaN.
	if !sort.Float64sAreSorted(ts) || math.IsNaN(ts[0]) {
		return fmt.Errorf("core: sealed run out of order")
	}
	if r.first != ts[0] || r.last != ts[r.n-1] {
		return fmt.Errorf("core: sealed run first/last metadata mismatch")
	}
	var seen [2]bool
	var first, last [2]float64
	for i, t := range ts {
		d := dirIndex(r.isFwd(i))
		if !seen[d] {
			seen[d], first[d] = true, t
		}
		last[d] = t
	}
	if first != r.dirFirst || last != r.dirLast {
		return fmt.Errorf("core: sealed run per-direction first/last metadata mismatch")
	}
	return nil
}
