package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/obs"
)

// Unit tests of the block encoding of a sealed run (DESIGN.md §12),
// over runs of one direction (sealOne): seal → decode round trips,
// tick-domain countLE against the hot-path reference, the raw lossless
// fallback, and corruption detection. Runs of two directions are
// FuzzSealedRunDirections' (run_test.go).

// sealOne seals ts as a run of forward events alone.
func sealOne(ts []float64, tick float64) *run { return sealRun(nil, ts, nil, tick) }

// segShape names the encoding a segTestTimes sequence is drawn to seal as.
type segShape int

const (
	segDense   segShape = iota // deltas 0–30: bit-packed blocks
	segWide                    // ... with an occasional huge delta: varint blocks
	segTraffic                 // skewed deltas of mean ≫ 128 ticks: Elias–Fano blocks
)

func (s segShape) String() string { return [...]string{"dense", "wide", "traffic"}[s] }

// segTestTimes builds a sorted tick-grid timestamp sequence of length n
// whose deltas exercise the requested encoding: small deltas take the
// bit-packed path, an occasional huge delta forces varint blocks,
// exponentially distributed gaps — the shape of traffic past a sensor —
// code smallest as Elias–Fano, and zero deltas produce duplicate
// timestamps in all three.
func segTestTimes(rng *rand.Rand, n int, tick float64, shape segShape) []float64 {
	ts := make([]float64, n)
	tv := int64(rng.Intn(100))
	for i := range ts {
		ts[i] = float64(tv) * tick
		switch {
		case shape == segWide && rng.Intn(40) == 0:
			tv += int64(rng.Uint64() % (1 << 40)) // > segMaxPackWidth bits
		case rng.Intn(10) == 0:
			// duplicate timestamp
		case shape == segTraffic:
			tv += int64(rng.ExpFloat64() * 600)
		default:
			tv += int64(1 + rng.Intn(30))
		}
	}
	return ts
}

// burstyTimes draws n ticks in bursts on one tick, steps of one and a
// rare jump: offsets that stay below two an event, which Elias–Fano
// codes in high bits alone (l = 0).
func burstyTimes(rng *rand.Rand, n int) []float64 {
	ts := make([]float64, n)
	for i, tv := 0, 0; i < n; i++ {
		ts[i] = float64(tv)
		switch k := rng.Intn(100); {
		case k < 2:
			tv += 40
		case k < 30:
			tv++
		}
	}
	return ts
}

// segModes tallies g's blocks by encoding.
func segModes(g *run) (ef, packed, varint, width0 int) {
	for _, b := range g.blocks {
		switch mode := g.data[b.off]; {
		case mode == segModeEF:
			ef++
		case mode == segModeVarint:
			varint++
		case mode == 0:
			width0++
		default:
			packed++
		}
	}
	return
}

// wantModes fails the test unless a segment of at least one full block,
// sealed from a sequence of the given shape, holds blocks of the
// encoding the shape is named for.
func wantModes(t *testing.T, g *run, shape segShape) {
	t.Helper()
	ef, packed, varint, _ := segModes(g)
	if got := [...]int{segDense: packed, segWide: varint, segTraffic: ef}[shape]; g.n >= segBlockLen && got == 0 {
		t.Fatalf("%v, %d events: sealed as %d Elias–Fano / %d packed / %d varint blocks", shape, g.n, ef, packed, varint)
	}
}

func TestSegmentSealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 127, 128, 129, 255, 256, 1000} {
		for _, shape := range []segShape{segDense, segWide, segTraffic} {
			ts := segTestTimes(rng, n, 0.5, shape)
			g := sealOne(ts, 0.5)
			if g.raw != nil {
				t.Fatalf("n=%d %v: unexpected raw fallback for tick-grid input", n, shape)
			}
			wantModes(t, g, shape)
			if g.n != n || g.nfwd != n {
				t.Fatalf("n=%d: n/nfwd = %d/%d", n, g.n, g.nfwd)
			}
			got := g.appendTimes(0, nil)
			if len(got) != n {
				t.Fatalf("n=%d %v: decoded %d events", n, shape, len(got))
			}
			for i := range ts {
				if math.Float64bits(got[i]) != math.Float64bits(ts[i]) {
					t.Fatalf("n=%d %v: event %d decodes to %v, want %v", n, shape, i, got[i], ts[i])
				}
			}
			if err := g.validate(); err != nil {
				t.Fatalf("n=%d %v: validate: %v", n, shape, err)
			}
			if g.memBytes() <= 0 {
				t.Fatalf("memBytes = %d", g.memBytes())
			}
		}
	}
}

// TestSegmentCountLEMatchesReference probes countLE at and around every
// event plus the extremes, comparing against the hot-path binary search
// on the original slice.
func TestSegmentCountLEMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 128, 513} {
		for _, shape := range []segShape{segDense, segWide, segTraffic} {
			ts := segTestTimes(rng, n, 0.25, shape)
			g := sealOne(ts, 0.25)
			wantModes(t, g, shape)
			probes := []float64{math.Inf(-1), ts[0] - 1, ts[0], ts[n-1], ts[n-1] + 1, math.Inf(1)}
			for _, x := range ts {
				probes = append(probes, x, x-0.125, x+0.125)
			}
			for _, p := range probes {
				if got, want := g.countLE(p), countLE(ts, p); got != want {
					t.Fatalf("n=%d %v: countLE(%v) = %d, want %d", n, shape, p, got, want)
				}
			}
			if got, want := g.countLE(math.NaN()), countLE(ts, math.NaN()); got != want {
				t.Fatalf("countLE(NaN) = %d, want %d (hot-path parity)", got, want)
			}
		}
	}
}

// windowOf is the window cursor's specification, read off a flat
// timestamp slice: the count at t1 and the events of (t1, t2].
func windowOf(ts []float64, t1, t2 float64) (int, []float64) {
	lo, hi := countLE(ts, t1), countLE(ts, t2)
	if hi < lo {
		hi = lo
	}
	return lo, ts[lo:hi]
}

// TestSegmentWindowMatchesSlice probes the window cursor with bounds at
// and around every event, the block boundaries and the extremes —
// empty, inverted, single-block and block-straddling windows — on
// bit-packed, varint, Elias–Fano (with and without low parts), width-0
// and raw segments.
func TestSegmentWindowMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	same := make([]float64, 300) // one repeated tick: width-0 blocks
	for i := range same {
		same[i] = 42
	}
	offGrid := segTestTimes(rng, 300, 1.0, segDense)
	for i := range offGrid {
		offGrid[i] += 1.0 / 3
	}
	bursty := burstyTimes(rng, 700)
	// Gaps of mean 1.5·2³² ticks: too wide to bit-pack, and Elias–Fano's
	// low parts at the 32 bits that are its own limit.
	sparse := make([]float64, 700)
	for i, tv := 0, int64(0); i < len(sparse); i++ {
		sparse[i] = float64(tv)
		tv += int64(rng.ExpFloat64() * (3 << 31))
	}
	for _, tc := range []struct {
		name string
		ts   []float64
		// mode counts the blocks of the encoding the case is named for.
		mode func(ef, packed, varint, width0 int) int
	}{
		{"packed", segTestTimes(rng, 700, 1.0, segDense), func(e, p, v, z int) int { return p }},
		{"varint", segTestTimes(rng, 700, 1.0, segWide), func(e, p, v, z int) int { return v }},
		{"ef", segTestTimes(rng, 700, 1.0, segTraffic), func(e, p, v, z int) int { return e }},
		{"ef-l0", bursty, func(e, p, v, z int) int { return e }},
		{"ef-l32", sparse, func(e, p, v, z int) int { return e }},
		{"width0", same, func(e, p, v, z int) int { return z }},
		{"raw", offGrid, nil},
		{"single", []float64{5}, nil},
	} {
		name, ts := tc.name, tc.ts
		g := sealOne(ts, 1.0)
		if (g.raw != nil) != (name == "raw") {
			t.Fatalf("%s: raw fallback = %v", name, g.raw != nil)
		}
		if tc.mode != nil && tc.mode(segModes(g)) < 3 {
			t.Fatalf("%s: %d of %d blocks sealed in the encoding the case is named for", name, tc.mode(segModes(g)), len(g.blocks))
		}
		if name == "ef-l0" {
			l0 := 0
			for _, b := range g.blocks {
				if g.data[b.off] == segModeEF && g.data[b.off+1] == 0 {
					l0++
				}
			}
			if l0 < 3 {
				t.Fatalf("ef-l0: %d blocks without low parts", l0)
			}
		}
		if name == "ef-l32" && g.data[g.blocks[0].off+1] != segMaxPackWidth {
			t.Fatalf("ef-l32: first block has %d-bit low parts", g.data[g.blocks[0].off+1])
		}
		bounds := []float64{math.Inf(-1), ts[0] - 1, ts[len(ts)-1] + 1, math.Inf(1), math.NaN()}
		for i := 0; i < len(ts); i += 1 + rng.Intn(40) {
			bounds = append(bounds, ts[i], ts[i]-0.5, ts[i]+0.5)
		}
		for i := segBlockLen - 1; i < len(ts); i += segBlockLen {
			bounds = append(bounds, ts[i], ts[i]+0.5)
		}
		for _, t1 := range bounds {
			if got, want := g.countLE(t1), countLE(ts, t1); got != want {
				t.Fatalf("%s: countLE(%v) = %d, want %d", name, t1, got, want)
			}
			for _, t2 := range bounds {
				wantLE, want := windowOf(ts, t1, t2)
				le, got := g.window(t1, t2, nil)
				if le != wantLE || len(got) != len(want) {
					t.Fatalf("%s: window(%v,%v) = %d before, %d inside; want %d, %d", name, t1, t2, le, len(got), wantLE, len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: window(%v,%v) event %d = %v, want %v", name, t1, t2, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSegmentRawFallback seals off-grid timestamps: the segment must
// keep them verbatim and answer identically, never silently quantize.
func TestSegmentRawFallback(t *testing.T) {
	ts := []float64{1.0 / 3, 2.0 / 3, 1.1, 2.5000001, 7.77}
	g := sealOne(ts, 1.0)
	if g.raw == nil {
		t.Fatalf("off-grid input did not fall back to raw storage")
	}
	got := g.appendTimes(0, nil)
	for i := range ts {
		if math.Float64bits(got[i]) != math.Float64bits(ts[i]) {
			t.Fatalf("raw segment event %d = %v, want %v", i, got[i], ts[i])
		}
	}
	for _, p := range []float64{0, 1.0 / 3, 0.5, 2.5, 100} {
		if got, want := g.countLE(p), countLE(ts, p); got != want {
			t.Fatalf("raw countLE(%v) = %d, want %d", p, got, want)
		}
	}
	if err := g.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

// TestSealPicksSmallestPayload re-derives, for every block of dense,
// wide, traffic-shaped and bursty sequences, the size each encoding
// would give it, and checks that the payload written is the smallest —
// so no block is ever larger than the two older encodings alone would
// have made it — with a tie going to Elias–Fano.
func TestSealPicksSmallestPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	seqs := [][]float64{burstyTimes(rng, 1000)}
	for _, shape := range []segShape{segDense, segWide, segTraffic} {
		seqs = append(seqs, segTestTimes(rng, 1000, 1.0, shape), segTestTimes(rng, 77, 1.0, shape))
	}
	var wonEF, wonPacked, wonVarint int
	for _, ts := range seqs {
		g := sealOne(ts, 1.0)
		for b := range g.blocks {
			lo, hi := b*segBlockLen, min((b+1)*segBlockLen, len(ts))
			end := len(g.data)
			if b+1 < len(g.blocks) {
				end = int(g.blocks[b+1].off)
			}
			mode, written := g.data[g.blocks[b].off], end-int(g.blocks[b].off)-1
			if hi-lo == 1 || ts[hi-1] == ts[lo] {
				if mode != 0 || written != 0 {
					t.Fatalf("block of one repeated tick sealed in mode %#x with %d payload bytes", mode, written)
				}
				continue
			}
			nd := hi - lo - 1
			var maxD, maxOff uint64
			varint := 0
			for i := lo + 1; i < hi; i++ {
				d := uint64(ts[i] - ts[i-1])
				maxD, maxOff = max(maxD, d), uint64(ts[i]-ts[lo])
				varint += len(binary.AppendUvarint(nil, d))
			}
			smallest, parent := varint, varint
			if w := bits.Len64(maxD); w <= 32 {
				parent = min(parent, (nd*w+7)/8)
				smallest = parent
			}
			l := 0
			for maxOff/uint64(nd)>>(l+1) > 0 {
				l++
			}
			ef := 2 + (nd*l+7)/8 + (int(maxOff>>l)+nd+7)/8
			if l <= 32 {
				smallest = min(smallest, ef)
			}
			if written != smallest || written > parent {
				t.Fatalf("block of %d deltas (max %d, span %d) written in %d bytes, mode %#x; candidates: Elias–Fano %d (l=%d), best of bit-packed and varint %d", nd, maxD, maxOff, written, mode, ef, l, parent)
			}
			if l <= 32 && ef == smallest && mode != segModeEF {
				t.Fatalf("block sealed in mode %#x where Elias–Fano is as small (%d bytes)", mode, ef)
			}
			switch mode {
			case segModeEF:
				wonEF++
			case segModeVarint:
				wonVarint++
			default:
				wonPacked++
			}
		}
	}
	if wonEF == 0 || wonPacked == 0 || wonVarint == 0 {
		t.Fatalf("vacuous: %d Elias–Fano, %d bit-packed, %d varint blocks", wonEF, wonPacked, wonVarint)
	}
}

func TestSegmentValidateDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ts := segTestTimes(rng, 3*segBlockLen, 1.0, segTraffic)

	g := sealOne(ts, 1.0)
	if ef, _, _, _ := segModes(g); ef != len(g.blocks) {
		t.Fatalf("%d of %d blocks sealed as Elias–Fano", ef, len(g.blocks))
	}
	g.data = g.data[:len(g.data)/2]
	if err := g.validate(); err == nil {
		t.Fatalf("validate accepted a truncated payload")
	}

	g = sealOne(ts, 1.0)
	g.blocks = g.blocks[:1]
	if err := g.validate(); err == nil {
		t.Fatalf("validate accepted a truncated skip index")
	}

	// The skip entry is the block's source of truth, so corruption is
	// detectable exactly when it breaks cross-block monotonicity.
	g = sealOne(ts, 1.0)
	g.blocks[1].startTick -= 100000
	if err := g.validate(); err == nil {
		t.Fatalf("validate accepted a skip entry breaking monotonicity")
	}

	g = sealOne(ts, 1.0)
	g.n++
	if err := g.validate(); err == nil {
		t.Fatalf("validate accepted a wrong event count")
	}

	// Direction bits must agree with the skip index's forward counts,
	// and none may stand past the last event of the run.
	g = sealOne(ts[:2*segBlockLen+5], 1.0)
	g.blocks[1].dir[1] &^= 1 << 63
	if err := g.validate(); err == nil {
		t.Fatalf("validate accepted a forward count the direction bits do not add up to")
	}
	g = sealOne(ts[:2*segBlockLen+5], 1.0)
	g.blocks[2].dir[0] |= 1 << 5
	g.nfwd++
	if err := g.validate(); err == nil {
		t.Fatalf("validate accepted a direction bit past the last event")
	}
	g = sealOne(ts, 1.0)
	g.dirLast[0]++
	if err := g.validate(); err == nil {
		t.Fatalf("validate accepted a wrong last forward timestamp")
	}

	// Every single-bit flip of the payload — mode, l, hbytes, low parts,
	// high bits, padding — is refused, or left a segment that still
	// counts what it decodes to.
	g = sealOne(ts, 1.0)
	accepted := 0
	for bit := 0; bit < 8*len(g.data); bit++ {
		g.data[bit>>3] ^= 1 << (bit & 7)
		if err := g.validate(); err == nil {
			accepted++
			segCountsWhatItDecodes(t, g)
		}
		g.data[bit>>3] ^= 1 << (bit & 7)
	}
	t.Logf("%d of %d single-bit flips leave a valid segment", accepted, 8*len(g.data))

	// No prefix of the payload makes a read panic or run past the data
	// (the low parts are loaded eight bytes at a time).
	full := g.data
	for cut := 0; cut < len(full); cut++ {
		g.data = full[:cut:cut]
		g.validate()
		for _, x := range ts {
			g.countLE(x)
		}
		g.window(ts[5], ts[len(ts)-5], nil)
	}
}

// segCountsWhatItDecodes checks countLE at every event against a count
// over the segment's own appendTimes.
func segCountsWhatItDecodes(t *testing.T, g *run) {
	t.Helper()
	back := g.appendTimes(0, nil)
	for _, x := range back {
		if got, want := g.countLE(x), countLE(back, x); got != want {
			t.Fatalf("countLE(%v) = %d over a segment that decodes to %d events ≤ it", x, got, want)
		}
	}
}

// efTestBlock seals one full block of traffic-shaped ticks and returns
// it with its offsets, its low-part width and where in data highs starts.
func efTestBlock(t *testing.T) (g *run, offs []uint64, l, highsAt int) {
	t.Helper()
	ts := segTestTimes(rand.New(rand.NewSource(44)), segBlockLen, 1.0, segTraffic)
	g = sealOne(ts, 1.0)
	if g.data[0] != segModeEF {
		t.Fatalf("block sealed in mode %#x", g.data[0])
	}
	for _, x := range ts[1:] {
		offs = append(offs, uint64(x-ts[0]))
	}
	l = int(g.data[1])
	return g, offs, l, 3 + (len(offs)*l+7)/8
}

// TestSegmentValidateRefusesNonCanonicalEF: an Elias–Fano payload that
// is not what the encoder writes is refused even where the decoders
// could read it, so rank and enumeration never meet a block they might
// read differently.
func TestSegmentValidateRefusesNonCanonicalEF(t *testing.T) {
	refused := func(t *testing.T, g *run) {
		t.Helper()
		if err := g.validate(); err == nil {
			t.Fatalf("validate accepted the block")
		}
	}
	t.Run("one more one than events", func(t *testing.T) {
		g, _, _, highsAt := efTestBlock(t)
		for bit := 0; ; bit++ { // the first zero of highs: every later event moves down a bucket
			if g.data[highsAt+bit>>3]>>(bit&7)&1 == 0 {
				g.data[highsAt+bit>>3] |= 1 << (bit & 7)
				break
			}
		}
		refused(t, g)
	})
	t.Run("padding bit after the last event", func(t *testing.T) {
		g, offs, l, _ := efTestBlock(t)
		if used := int(offs[len(offs)-1]>>l) + len(offs); used%8 == 0 {
			t.Fatalf("highs has no padding")
		}
		g.data[len(g.data)-1] |= 0x80
		refused(t, g)
	})
	t.Run("padding bit after the low parts", func(t *testing.T) {
		g, offs, l, highsAt := efTestBlock(t)
		if len(offs)*l%8 == 0 {
			t.Fatalf("lows has no padding")
		}
		g.data[highsAt-1] |= 0x80
		// Every decoder ignores the bit; only the canonical form forbids it.
		segCountsWhatItDecodes(t, g)
		if n := len(g.appendTimes(0, nil)); n != g.n {
			t.Fatalf("decodes to %d events", n)
		}
		refused(t, g)
	})
	t.Run("low parts one bit wider than the encoder's", func(t *testing.T) {
		g, offs, l, _ := efTestBlock(t)
		hbytes := int(offs[len(offs)-1]>>(l+1)+uint64(len(offs))+7) / 8
		g.data = appendEF([]byte{segModeEF}, offs, l+1, hbytes)
		segCountsWhatItDecodes(t, g)
		if n := len(g.appendTimes(0, nil)); n != g.n {
			t.Fatalf("decodes to %d events", n)
		}
		refused(t, g)
	})
}

// fuzzSegmentTimes turns the fuzzer's bytes into the timestamps it
// seals: non-decreasing tick deltas — small ones bit-pack, zeros make
// width-0 blocks, the marker byte 255 injects a delta too wide to pack
// (varint blocks) and 254 a mid-sized one that skews a block's deltas
// enough for Elias–Fano to code it smallest — with an optional off-grid
// shift that forces the raw fallback.
func fuzzSegmentTimes(deltas []byte, tick float64, offGrid bool) []float64 {
	ts := make([]float64, len(deltas))
	tv := int64(0)
	for i, d := range deltas {
		switch d {
		case 255:
			tv += 1 << 36 // wider than segMaxPackWidth
		case 254:
			tv += 1000
		default:
			tv += int64(d)
		}
		ts[i] = float64(tv) * tick
		if offGrid {
			ts[i] += tick / 3
		}
	}
	return ts
}

// FuzzSegmentWindow drives the window cursor with arbitrary sealed
// sequences (fuzzSegmentTimes) and bounds: (t1, t2) are arbitrary
// floats. On every segment validate accepts, the cursor's count at t1
// and its events of (t1, t2] must equal the same read off the timestamps
// the segment was sealed from — which appendTimes must give back — and
// nothing may panic. `make check` runs a 10s smoke.
func FuzzSegmentWindow(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 0, 7}, 1.0, false, 2.0, 9.0)
	f.Add(make([]byte, 300), 0.5, false, 0.0, 0.0)
	f.Add([]byte{255, 1, 255, 2, 9, 9, 9}, 0.25, false, math.Inf(-1), math.NaN())
	f.Add([]byte{4, 4, 4, 4}, 1.0, true, 3.9, 12.4)
	long := make([]byte, 700)
	for i := range long {
		long[i] = byte(i * 7)
	}
	f.Add(long, 1.0, false, 900.0, 1100.0)
	// Two seeds that seal Elias–Fano blocks: small deltas with a rare
	// mid-sized one (short low parts), and one every twelfth event.
	rare, often := make([]byte, 300), make([]byte, 300)
	for i := range rare {
		rare[i], often[i] = byte(i%13), byte(i%4)
		if i%37 == 5 {
			rare[i] = 254
		}
		if i%12 == 2 {
			often[i] = 254
		}
	}
	for _, seed := range [][]byte{rare, often} {
		if ef, _, _, _ := segModes(sealOne(fuzzSegmentTimes(seed, 1.0, false), 1.0)); ef < 2 {
			f.Fatalf("a seed meant to seal Elias–Fano blocks sealed %d", ef)
		}
	}
	f.Add(rare, 1.0, false, 1500.0, 1600.0)
	f.Add(often, 0.5, false, 9000.0, 9900.0)
	// countIn's two fused shapes: both bounds in one Elias–Fano block, and
	// bounds in adjacent blocks.
	ts := fuzzSegmentTimes(rare, 1.0, false)
	g := sealOne(ts, 1.0)
	for _, tc := range []struct{ i1, i2, apart int }{{segBlockLen + 10, segBlockLen + 20, 0}, {segBlockLen - 6, segBlockLen + 6, 1}} {
		t1, t2 := ts[tc.i1]+0.5, ts[tc.i2]
		b1, b2 := g.blockOf(g.tickLE(t1), 0), g.blockOf(g.tickLE(t2), 0)
		if g.data[g.blocks[b1].off] != segModeEF || b2-b1 != tc.apart {
			f.Fatalf("countIn seed (%v, %v) lands in blocks %d and %d", t1, t2, b1, b2)
		}
		f.Add(rare, 1.0, false, t1, t2)
	}
	f.Fuzz(func(t *testing.T, deltas []byte, tick float64, offGrid bool, t1, t2 float64) {
		if len(deltas) == 0 || !(tick > 1e-6) || tick > 1e6 {
			return
		}
		ts := fuzzSegmentTimes(deltas, tick, offGrid)
		g := sealOne(ts, tick)
		if err := g.validate(); err != nil {
			t.Fatalf("sealSegment built a segment validate rejects: %v", err)
		}
		if back := g.appendTimes(0, nil); len(back) != len(ts) {
			t.Fatalf("appendTimes returned %d of %d events", len(back), len(ts))
		} else {
			for i := range ts {
				if math.Float64bits(back[i]) != math.Float64bits(ts[i]) {
					t.Fatalf("appendTimes event %d = %v, want %v", i, back[i], ts[i])
				}
			}
		}
		wantLE, want := windowOf(ts, t1, t2)
		le, got := g.window(t1, t2, nil)
		if le != wantLE || len(got) != len(want) {
			t.Fatalf("window(%v,%v) = %d before, %d inside; want %d, %d", t1, t2, le, len(got), wantLE, len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("window(%v,%v) event %d = %v, want %v", t1, t2, i, got[i], want[i])
			}
		}
		if c := g.countLE(t1); c != wantLE {
			t.Fatalf("countLE(%v) = %d, want %d", t1, c, wantLE)
		}
		for _, q := range []float64{t1, t2} {
			if c, ref := countLE(ts, q), sort.Search(len(ts), func(i int) bool { return ts[i] > q }); c != ref {
				t.Fatalf("hot-tier countLE(%v) = %d, sort.Search says %d", q, c, ref)
			}
		}
		if p1, p2 := g.countPair(t1, t2); p1 != countLE(ts, t1) || p2 != countLE(ts, t2) {
			t.Fatalf("countPair(%v,%v) = %d, %d, want %d, %d", t1, t2, p1, p2, countLE(ts, t1), countLE(ts, t2))
		}
	})
}

// TestSegmentEFReadsDoNotAllocate: the rank behind countLE and the
// enumeration behind window allocate nothing on Elias–Fano blocks.
func TestSegmentEFReadsDoNotAllocate(t *testing.T) {
	ts := segTestTimes(rand.New(rand.NewSource(53)), 4*segBlockLen, 1.0, segTraffic)
	g := sealOne(ts, 1.0)
	if ef, _, _, _ := segModes(g); ef != len(g.blocks) {
		t.Fatalf("%d of %d blocks sealed as Elias–Fano", ef, len(g.blocks))
	}
	dst := make([]float64, 0, len(ts))
	i := 0
	if allocs := testing.AllocsPerRun(500, func() {
		i = (i + 37) % (len(ts) - 20)
		g.countLE(ts[i] + 0.5)
		g.window(ts[i]+0.5, ts[i+20], dst[:0])
	}); allocs != 0 {
		t.Fatalf("countLE + window over Elias–Fano blocks allocate %.1f times per call, want 0", allocs)
	}
}

// TestSealCountsBlockModes: sealing reports the encodings it chose, and
// a count that meets an undecodable block — which validation keeps from
// the serving path — says so instead of undercounting in silence.
func TestSealCountsBlockModes(t *testing.T) {
	counter := func(name string) uint64 { return obs.Default.Counter(name).Value() }
	names := []string{"core.history_blocks_ef", "core.history_blocks_packed", "core.history_blocks_varint", "core.history_blocks_width0"}
	before := make([]uint64, len(names))
	for i, name := range names {
		before[i] = counter(name)
	}
	obs.Enable()
	defer obs.Disable()
	rng := rand.New(rand.NewSource(59))
	var want [4]int
	for _, shape := range []segShape{segTraffic, segDense, segWide} {
		e, p, v, z := segModes(sealOne(segTestTimes(rng, 700, 1.0, shape), 1.0))
		want[0], want[1], want[2], want[3] = want[0]+e, want[1]+p, want[2]+v, want[3]+z
	}
	_, _, _, z := segModes(sealOne(make([]float64, 300), 1.0))
	want[3] += z
	for i, name := range names {
		if got := counter(name) - before[i]; got != uint64(want[i]) || got == 0 {
			t.Errorf("%s rose by %d over seals that wrote %d such blocks", name, got, want[i])
		}
	}

	ts := segTestTimes(rng, 3*segBlockLen, 1.0, segTraffic)
	g := sealOne(ts, 1.0)
	g.data[g.blocks[1].off+1] = 0xFF // l = 255: undecodable
	corrupt := counter("core.history_corrupt_blocks")
	if got := g.countLE(ts[segBlockLen+60]); got != segBlockLen {
		t.Fatalf("countLE over a corrupt block = %d, want the %d events before it", got, segBlockLen)
	}
	if got := counter("core.history_corrupt_blocks") - corrupt; got != 1 {
		t.Fatalf("core.history_corrupt_blocks rose by %d, want 1", got)
	}
}
