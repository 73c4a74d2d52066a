package core

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Wire-format tests of SealedHistory (DESIGN.md §12): encode → decode
// round trips across block-encoded and raw segments, and decoder
// robustness against truncation and bit flips (errors, never panics).

// wireTestHistory builds a history of four segments: traffic-shaped gaps
// (Elias–Fano blocks), small deltas (bit-packed), off the grid (raw),
// and traffic-shaped again.
func wireTestHistory(rng *rand.Rand) *history {
	var h *history
	base := 0.0
	for s := 0; s < 4; s++ {
		n := 50 + rng.Intn(300)
		ts := make([]float64, n)
		if s == 2 {
			// Off-grid: forces the raw fallback segment kind.
			t := base
			for i := range ts {
				t += rng.Float64()
				ts[i] = t
			}
		} else {
			tv := int64(base) + 1
			for i := range ts {
				if s == 1 {
					tv += int64(rng.Intn(20))
				} else {
					tv += int64(rng.ExpFloat64() * 600)
				}
				ts[i] = float64(tv)
			}
		}
		h = h.extend(sealSegment(ts, 1.0, h.hlen()))
		base = ts[n-1] + 1
	}
	return h
}

func TestHistoryWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	h := wireTestHistory(rng)
	sh := &SealedHistory{h: h}

	wire := sh.AppendWire(nil)
	if len(wire) != sh.WireSize() {
		t.Fatalf("AppendWire produced %d bytes, WireSize says %d", len(wire), sh.WireSize())
	}
	// Decode must also work mid-buffer and report consumed bytes.
	padded := append([]byte{0xAA, 0xBB}, append(wire, 0xCC)...)
	got, consumed, err := DecodeSealedHistory(padded[2:])
	if err != nil {
		t.Fatalf("DecodeSealedHistory: %v", err)
	}
	if consumed != len(wire) {
		t.Fatalf("consumed %d bytes, want %d", consumed, len(wire))
	}
	if got.NumEvents() != sh.NumEvents() || got.NumSegments() != sh.NumSegments() {
		t.Fatalf("decoded %d events / %d segments, want %d / %d",
			got.NumEvents(), got.NumSegments(), sh.NumEvents(), sh.NumSegments())
	}
	a, b := h.appendTimes(nil), got.h.appendTimes(nil)
	if len(a) != len(b) {
		t.Fatalf("decoded history holds %d events, want %d", len(b), len(a))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("event %d decodes to %v, want %v", i, b[i], a[i])
		}
	}
	if _, err := got.h.validate(); err != nil {
		t.Fatalf("decoded history fails validation: %v", err)
	}
}

// TestHistoryWireTruncation feeds every strict prefix of the wire image
// to the decoder: each must error (or report full consumption), never
// panic or over-read.
func TestHistoryWireTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	sh := &SealedHistory{h: wireTestHistory(rng)}
	wire := sh.AppendWire(nil)
	for cut := 0; cut < len(wire); cut++ {
		if _, _, err := DecodeSealedHistory(wire[:cut]); err == nil {
			t.Fatalf("decoder accepted a %d/%d-byte prefix", cut, len(wire))
		}
	}
}

// TestHistoryWireRefusesImpossibleCounts: a declared event or block
// count the remaining bytes cannot hold is refused before anything is
// sized by it — n = 2⁶¹+1 raw events, whose 8·n wraps to 8, would reach
// make([]float64, n) and panic; 2³¹ blocks would ask for 32 GiB.
func TestHistoryWireRefusesImpossibleCounts(t *testing.T) {
	head := func(kind byte, n uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, 1)
		b = append(b, kind)
		b = binary.LittleEndian.AppendUint64(b, n)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(2))
	}
	raw := append(head(sealedKindRaw, 1<<61+1), make([]byte, 8)...)
	blocks := binary.LittleEndian.AppendUint64(head(sealedKindBlocks, 1<<38), math.Float64bits(0.5))
	blocks = binary.LittleEndian.AppendUint32(blocks, 1<<31)
	blocks = append(blocks, make([]byte, 64)...)
	for name, blob := range map[string][]byte{"raw": raw, "blocks": blocks} {
		if _, _, err := DecodeSealedHistory(blob); err == nil || !strings.Contains(err.Error(), "claims") {
			t.Errorf("%s: err = %v, want an impossible-count refusal", name, err)
		}
	}
}

// TestHistoryWireBitFlips flips bits at random offsets of a history
// holding Elias–Fano, bit-packed and raw segments: the decoder must
// never panic, and a flip that still decodes must be refused by validate
// or leave a history that counts what it decodes to — silent corruption
// of the invariants countLE depends on is not acceptable (the checkpoint
// CRC catches the flips that merely change the data).
func TestHistoryWireBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sh := &SealedHistory{h: wireTestHistory(rng)}
	ef, packed := 0, 0
	for _, g := range sh.h.segs {
		if g.raw == nil {
			e, p, _, _ := segModes(g)
			ef, packed = ef+e, packed+p
		}
	}
	if ef < 2 || packed == 0 {
		t.Fatalf("history holds %d Elias–Fano and %d bit-packed blocks", ef, packed)
	}
	wire := sh.AppendWire(nil)
	accepted := 0
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), wire...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		got, _, err := DecodeSealedHistory(mut)
		if err != nil {
			continue
		}
		if _, err := got.h.validate(); err != nil {
			continue
		}
		accepted++
		back := got.h.appendTimes(nil)
		for _, x := range back {
			if c, want := got.h.countLE(x), countLE(back, x); c != want {
				t.Fatalf("trial %d: countLE(%v) = %d over a history that decodes to %d events ≤ it", trial, x, c, want)
			}
		}
	}
	if accepted == 0 {
		t.Fatalf("vacuous: no flip left a history validate accepts")
	}
}

// TestHistoryWireLoadsPreEliasFanoBlob decodes a sealed history written
// by the encoder as it stood before the Elias–Fano mode existed — three
// segments at tick 0.5 holding one bit-packed, one varint and one
// width-0 block, AppendWire output, hex — and reads it as its source
// slice: the mode byte is self-describing, so files written then load
// now.
func TestHistoryWireLoadsPreEliasFanoBlob(t *testing.T) {
	const blob = "03000000" +
		"000600000000000000000000000000f03f0000000000001840000000000000e03f010000000200000000000000000000000300000002cd0300" +
		"05000000000000000000000000001c400000120000002042000000000000e03f010000000e00000000000000000000000a000000ff0180808080800202" +
		"01000400000000000000000000205fa02242000000205fa02242000000000000e03f0100000000205fa012000000000000000100000000"
	src := []float64{1, 1.5, 3, 3, 4.5, 6, 7, 7.5, 34359738375.5, 34359738376.5, 34359738377, 4e10, 4e10, 4e10, 4e10}
	wire, err := hex.DecodeString(blob)
	if err != nil {
		t.Fatal(err)
	}
	sh, consumed, err := DecodeSealedHistory(wire)
	if err != nil || consumed != len(wire) {
		t.Fatalf("DecodeSealedHistory: consumed %d of %d bytes, err %v", consumed, len(wire), err)
	}
	h := sh.h
	if _, err := h.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	for i, want := range []byte{2, segModeVarint, 0} {
		if got := h.segs[i].data[0]; got != want {
			t.Fatalf("segment %d is in mode %#x, the blob was written with %#x", i, got, want)
		}
	}
	back := h.appendTimes(nil)
	if len(back) != len(src) {
		t.Fatalf("decodes to %d events, want %d", len(back), len(src))
	}
	bounds := []float64{math.Inf(-1), 0, 5e10, math.Inf(1), math.NaN()}
	for i, x := range src {
		if math.Float64bits(back[i]) != math.Float64bits(x) {
			t.Fatalf("event %d decodes to %v, want %v", i, back[i], x)
		}
		bounds = append(bounds, x, x-0.25, x+0.25)
	}
	for _, t1 := range bounds {
		if got, want := h.countLE(t1), countLE(src, t1); got != want {
			t.Fatalf("countLE(%v) = %d, want %d", t1, got, want)
		}
		for _, t2 := range bounds {
			wantLE, want := windowOf(src, t1, t2)
			le, got, _ := h.window(t1, t2, nil)
			if le != wantLE || len(got) != len(want) {
				t.Fatalf("window(%v,%v) = %d before, %d inside; want %d, %d", t1, t2, le, len(got), wantLE, len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("window(%v,%v) event %d = %v, want %v", t1, t2, i, got[i], want[i])
				}
			}
		}
	}
}
