package core

import (
	"math"
	"math/rand"
	"testing"
)

// Unit tests of the immutable warm segment (DESIGN.md §12): seal →
// decode round trips, tick-domain countLE against the hot-path
// reference, the raw lossless fallback, and corruption detection.

// segTestTimes builds a sorted tick-grid timestamp sequence of length n
// whose deltas exercise the requested encoding: small deltas take the
// bit-packed path, an occasional huge delta forces varint blocks, and
// zero deltas produce duplicate timestamps.
func segTestTimes(rng *rand.Rand, n int, tick float64, wide bool) []float64 {
	ts := make([]float64, n)
	tv := int64(rng.Intn(100))
	for i := range ts {
		ts[i] = float64(tv) * tick
		switch {
		case wide && rng.Intn(40) == 0:
			tv += int64(rng.Uint64() % (1 << 40)) // > segMaxPackWidth bits
		case rng.Intn(10) == 0:
			// duplicate timestamp
		default:
			tv += int64(1 + rng.Intn(30))
		}
	}
	return ts
}

func TestSegmentSealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 127, 128, 129, 255, 256, 1000} {
		for _, wide := range []bool{false, true} {
			ts := segTestTimes(rng, n, 0.5, wide)
			g := sealSegment(ts, 0.5, 7)
			if g.raw != nil {
				t.Fatalf("n=%d wide=%v: unexpected raw fallback for tick-grid input", n, wide)
			}
			if g.startIdx != 7 || g.n != n {
				t.Fatalf("n=%d: startIdx/n = %d/%d, want 7/%d", n, g.startIdx, g.n, n)
			}
			got := g.appendTimes(nil)
			if len(got) != n {
				t.Fatalf("n=%d wide=%v: decoded %d events", n, wide, len(got))
			}
			for i := range ts {
				if math.Float64bits(got[i]) != math.Float64bits(ts[i]) {
					t.Fatalf("n=%d wide=%v: event %d decodes to %v, want %v", n, wide, i, got[i], ts[i])
				}
			}
			if _, err := g.validate(math.Inf(-1)); err != nil {
				t.Fatalf("n=%d wide=%v: validate: %v", n, wide, err)
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
		for _, wide := range []bool{false, true} {
			ts := segTestTimes(rng, n, 0.25, wide)
			g := sealSegment(ts, 0.25, 0)
			probes := []float64{math.Inf(-1), ts[0] - 1, ts[0], ts[n-1], ts[n-1] + 1, math.Inf(1)}
			for _, x := range ts {
				probes = append(probes, x, x-0.125, x+0.125)
			}
			for _, p := range probes {
				if got, want := g.countLE(p), countLE(ts, p); got != want {
					t.Fatalf("n=%d wide=%v: countLE(%v) = %d, want %d", n, wide, p, got, want)
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
// bit-packed, varint, width-0 and raw segments.
func TestSegmentWindowMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	same := make([]float64, 300) // one repeated tick: width-0 blocks
	for i := range same {
		same[i] = 42
	}
	offGrid := segTestTimes(rng, 300, 1.0, false)
	for i := range offGrid {
		offGrid[i] += 1.0 / 3
	}
	for name, ts := range map[string][]float64{
		"packed": segTestTimes(rng, 700, 1.0, false),
		"varint": segTestTimes(rng, 700, 1.0, true),
		"width0": same,
		"raw":    offGrid,
		"single": {5},
	} {
		g := sealSegment(ts, 1.0, 0)
		if (g.raw != nil) != (name == "raw") {
			t.Fatalf("%s: raw fallback = %v", name, g.raw != nil)
		}
		bounds := []float64{math.Inf(-1), ts[0] - 1, ts[len(ts)-1] + 1, math.Inf(1), math.NaN()}
		for i := 0; i < len(ts); i += 1 + rng.Intn(40) {
			bounds = append(bounds, ts[i], ts[i]-0.5, ts[i]+0.5)
		}
		for i := segBlockLen - 1; i < len(ts); i += segBlockLen {
			bounds = append(bounds, ts[i], ts[i]+0.5)
		}
		for _, t1 := range bounds {
			for _, t2 := range bounds {
				wantLE, want := windowOf(ts, t1, t2)
				le, got, more := g.window(t1, t2, nil)
				if le != wantLE || len(got) != len(want) {
					t.Fatalf("%s: window(%v,%v) = %d before, %d inside; want %d, %d", name, t1, t2, le, len(got), wantLE, len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: window(%v,%v) event %d = %v, want %v", name, t1, t2, i, got[i], want[i])
					}
				}
				// more must be false exactly when an event past t2 lies at
				// or after the cursor's start: later tiers are then skipped.
				if past := wantLE+len(want) < len(ts); more == past {
					t.Fatalf("%s: window(%v,%v): more = %v with %d events left", name, t1, t2, more, len(ts)-wantLE-len(want))
				}
			}
		}
	}
}

// TestSegmentRawFallback seals off-grid timestamps: the segment must
// keep them verbatim and answer identically, never silently quantize.
func TestSegmentRawFallback(t *testing.T) {
	ts := []float64{1.0 / 3, 2.0 / 3, 1.1, 2.5000001, 7.77}
	g := sealSegment(ts, 1.0, 0)
	if g.raw == nil {
		t.Fatalf("off-grid input did not fall back to raw storage")
	}
	got := g.appendTimes(nil)
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
	if _, err := g.validate(math.Inf(-1)); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestSegmentValidateDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ts := segTestTimes(rng, 300, 1.0, false)

	g := sealSegment(ts, 1.0, 0)
	g.data = g.data[:len(g.data)/2]
	if _, err := g.validate(math.Inf(-1)); err == nil {
		t.Fatalf("validate accepted a truncated payload")
	}

	g = sealSegment(ts, 1.0, 0)
	g.blocks = g.blocks[:1]
	if _, err := g.validate(math.Inf(-1)); err == nil {
		t.Fatalf("validate accepted a truncated skip index")
	}

	// The skip entry is the block's source of truth, so corruption is
	// detectable exactly when it breaks cross-block monotonicity.
	g = sealSegment(ts, 1.0, 0)
	g.blocks[1].startTick -= 100000
	if _, err := g.validate(math.Inf(-1)); err == nil {
		t.Fatalf("validate accepted a skip entry breaking monotonicity")
	}

	g = sealSegment(ts, 1.0, 0)
	g.n++
	if _, err := g.validate(math.Inf(-1)); err == nil {
		t.Fatalf("validate accepted a wrong event count")
	}

	// A segment starting before its predecessor's tail must be rejected.
	g = sealSegment(ts, 1.0, 0)
	if _, err := g.validate(ts[0] + 1); err == nil {
		t.Fatalf("validate accepted a segment overlapping its predecessor")
	}
}

// FuzzSegmentWindow drives the window cursor with arbitrary sealed
// sequences and bounds: the fuzzer's bytes become non-decreasing tick
// deltas (small ones bit-pack, zeros make width-0 blocks, a marker byte
// injects a delta too wide to pack), an optional off-grid shift forces
// the raw fallback, and (t1, t2) are arbitrary floats. On every segment
// validate accepts, the cursor's count at t1 and its events of (t1, t2]
// must equal the same read off the timestamps the segment was sealed
// from — which appendTimes must give back — and nothing may panic.
// `make check` runs a 10s smoke.
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
	f.Fuzz(func(t *testing.T, deltas []byte, tick float64, offGrid bool, t1, t2 float64) {
		if len(deltas) == 0 || !(tick > 1e-6) || tick > 1e6 {
			return
		}
		ts := make([]float64, len(deltas))
		tv := int64(0)
		for i, d := range deltas {
			if d == 255 {
				tv += 1 << 36 // wider than segMaxPackWidth: a varint block
			} else {
				tv += int64(d)
			}
			ts[i] = float64(tv) * tick
			if offGrid {
				ts[i] += tick / 3
			}
		}
		g := sealSegment(ts, tick, 0)
		if _, err := g.validate(math.Inf(-1)); err != nil {
			t.Fatalf("sealSegment built a segment validate rejects: %v", err)
		}
		if back := g.appendTimes(nil); len(back) != len(ts) {
			t.Fatalf("appendTimes returned %d of %d events", len(back), len(ts))
		} else {
			for i := range ts {
				if math.Float64bits(back[i]) != math.Float64bits(ts[i]) {
					t.Fatalf("appendTimes event %d = %v, want %v", i, back[i], ts[i])
				}
			}
		}
		wantLE, want := windowOf(ts, t1, t2)
		le, got, _ := g.window(t1, t2, nil)
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
	})
}
