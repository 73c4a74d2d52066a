package core

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Wire-format tests of SealedRun (DESIGN.md §12): encode → decode
// round trips of block-encoded and raw runs of two directions, and
// decoder robustness against truncation and bit flips (errors, never
// panics); and the per-direction form of older checkpoints.

// wireTestRun builds a run of two directions over four seals: forward
// traffic-shaped gaps (Elias–Fano blocks) and reverse small deltas
// (bit-packed), each seal's reverse events starting before the run's
// last so the run is re-encoded from inside. Off the grid, the same
// shape is sealed raw.
func wireTestRun(rng *rand.Rand, offGrid bool) *run {
	var r *run
	tf, tr := 0.0, 0.0
	for s := 0; s < 4; s++ {
		fwd, rev := make([]float64, 50+rng.Intn(300)), make([]float64, 50+rng.Intn(300))
		for i := range fwd {
			tf += float64(int64(rng.ExpFloat64() * 600))
			fwd[i] = tf
		}
		for i := range rev {
			tr += float64(rng.Intn(20))
			rev[i] = tr
		}
		if offGrid {
			rev[len(rev)-1] += 1.0 / 3
			tr = rev[len(rev)-1]
		}
		r = sealRun(r, fwd, rev, 1.0)
	}
	return r
}

func TestHistoryWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, offGrid := range []bool{false, true} {
		r := wireTestRun(rng, offGrid)
		if (r.raw != nil) != offGrid {
			t.Fatalf("off grid %v: run sealed raw = %v", offGrid, r.raw != nil)
		}
		sr := &SealedRun{r: r}
		wire := sr.AppendWire(nil)
		if len(wire) != sr.WireSize() {
			t.Fatalf("AppendWire produced %d bytes, WireSize says %d", len(wire), sr.WireSize())
		}
		// Decode must also work mid-buffer and report consumed bytes.
		padded := append([]byte{0xAA, 0xBB}, append(wire, 0xCC)...)
		got, consumed, err := DecodeSealedRun(padded[2:])
		if err != nil {
			t.Fatalf("DecodeSealedRun: %v", err)
		}
		if consumed != len(wire) {
			t.Fatalf("consumed %d bytes, want %d", consumed, len(wire))
		}
		// The derived fields — forward counts, first, last — come back
		// too; the seal count does not travel.
		got.r.seals = r.seals
		if !reflect.DeepEqual(got.r, r) {
			t.Fatalf("off grid %v: decoded run differs from the sealed one", offGrid)
		}
		if err := got.r.validate(); err != nil {
			t.Fatalf("decoded run fails validation: %v", err)
		}
	}
}

// TestHistoryWireTruncation feeds every strict prefix of the wire image
// to the decoder: each must error, never panic or over-read. So must
// every prefix of an older checkpoint's per-direction history.
func TestHistoryWireTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, offGrid := range []bool{false, true} {
		wire := (&SealedRun{r: wireTestRun(rng, offGrid)}).AppendWire(nil)
		for cut := 0; cut < len(wire); cut++ {
			if _, _, err := DecodeSealedRun(wire[:cut]); err == nil {
				t.Fatalf("decoder accepted a %d/%d-byte prefix", cut, len(wire))
			}
		}
	}
	wire, err := hex.DecodeString(preEliasFanoBlob)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(wire); cut++ {
		if _, _, _, err := DecodeDirectionHistory(wire[:cut]); err == nil {
			t.Fatalf("per-direction decoder accepted a %d/%d-byte prefix", cut, len(wire))
		}
	}
}

// TestHistoryWireRefusesImpossibleCounts: a declared event or block
// count the remaining bytes cannot hold is refused before anything is
// sized by it — n = 2⁶¹+1 raw events, whose 8·n wraps to 8, would reach
// make([]float64, n) and panic; 2³¹ blocks would ask for 32 GiB — in
// the sealed-run form and the per-direction form alike.
func TestHistoryWireRefusesImpossibleCounts(t *testing.T) {
	runHead := func(kind byte, n uint64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, n)
		return append(append(b, kind), make([]byte, 32)...)
	}
	dirHead := func(kind byte, n uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, 1)
		b = append(b, kind)
		b = binary.LittleEndian.AppendUint64(b, n)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(2))
	}
	dirBlocks := binary.LittleEndian.AppendUint64(dirHead(sealedKindBlocks, 1<<38), math.Float64bits(0.5))
	dirBlocks = binary.LittleEndian.AppendUint32(dirBlocks, 1<<31)
	for name, blob := range map[string][]byte{
		"raw":            append(runHead(sealedKindRaw, 1<<61+1), make([]byte, 64)...),
		"blocks":         append(runHead(sealedKindBlocks, 1<<38), make([]byte, 64)...),
		"direction-raw":  append(dirHead(sealedKindRaw, 1<<61+1), make([]byte, 8)...),
		"direction-blks": append(dirBlocks, make([]byte, 64)...),
	} {
		var err error
		if strings.HasPrefix(name, "direction") {
			_, _, _, err = DecodeDirectionHistory(blob)
		} else {
			_, _, err = DecodeSealedRun(blob)
		}
		if err == nil || !strings.Contains(err.Error(), "claims") {
			t.Errorf("%s: err = %v, want an impossible-count refusal", name, err)
		}
	}
}

// TestHistoryWireBitFlips flips bits at random offsets of a run holding
// Elias–Fano and bit-packed blocks of two directions: the decoder must
// never panic, and a flip that still decodes must be refused by validate
// or leave a run that counts what it decodes to, and splits it by the
// direction bits it holds — silent corruption of the invariants the
// read path depends on is not acceptable (the checkpoint CRC catches the
// flips that merely change the data).
func TestHistoryWireBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	r := wireTestRun(rng, false)
	if ef, packed, _, _ := segModes(r); ef < 2 || packed == 0 {
		t.Fatalf("run holds %d Elias–Fano and %d bit-packed blocks", ef, packed)
	}
	wire := (&SealedRun{r: r}).AppendWire(nil)
	accepted := 0
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), wire...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		got, _, err := DecodeSealedRun(mut)
		if err != nil {
			continue
		}
		if err := got.r.validate(); err != nil {
			continue
		}
		accepted++
		back := got.r.appendTimes(0, nil)
		fwd := 0
		for i, x := range back {
			if c, want := got.r.countLE(x), countLE(back, x); c != want {
				t.Fatalf("trial %d: countLE(%v) = %d over a run that decodes to %d events ≤ it", trial, x, c, want)
			}
			if got.r.fwdRank(i) != fwd {
				t.Fatalf("trial %d: fwdRank(%d) = %d, the direction bits say %d", trial, i, got.r.fwdRank(i), fwd)
			}
			if got.r.isFwd(i) {
				fwd++
			}
		}
	}
	if accepted == 0 {
		t.Fatalf("vacuous: no flip left a run validate accepts")
	}
}

// preEliasFanoBlob is one direction's sealed history written by the
// encoder as it stood before the Elias–Fano mode existed — three
// segments at tick 0.5 holding one bit-packed, one varint and one
// width-0 block, in the per-direction wire form, hex.
const preEliasFanoBlob = "03000000" +
	"000600000000000000000000000000f03f0000000000001840000000000000e03f010000000200000000000000000000000300000002cd0300" +
	"05000000000000000000000000001c400000120000002042000000000000e03f010000000e00000000000000000000000a000000ff0180808080800202" +
	"01000400000000000000000000205fa02242000000205fa02242000000000000e03f0100000000205fa012000000000000000100000000"

// TestHistoryWireLoadsPreEliasFanoBlob decodes preEliasFanoBlob as its
// source slice — the mode byte is self-describing, so files written
// then load now — and seals it, as the reverse direction beside a
// forward one that interleaves with it, into a run that counts and
// windows each direction as its source.
func TestHistoryWireLoadsPreEliasFanoBlob(t *testing.T) {
	src := []float64{1, 1.5, 3, 3, 4.5, 6, 7, 7.5, 34359738375.5, 34359738376.5, 34359738377, 4e10, 4e10, 4e10, 4e10}
	wire, err := hex.DecodeString(preEliasFanoBlob)
	if err != nil {
		t.Fatal(err)
	}
	back, tick, consumed, err := DecodeDirectionHistory(wire)
	if err != nil || consumed != len(wire) || tick != 0.5 {
		t.Fatalf("DecodeDirectionHistory: consumed %d of %d bytes, tick %v, err %v", consumed, len(wire), tick, err)
	}
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
	fwd := []float64{0.5, 3, 7, 1e10}
	tr := &Tracker{sealed: SealDirections(fwd, back, tick).r}
	if err := tr.sealed.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	for _, d := range []struct {
		forward bool
		ts      []float64
	}{{true, fwd}, {false, src}} {
		for _, t1 := range bounds {
			if got, want := tr.Count(d.forward, t1), countLE(d.ts, t1); got != want {
				t.Fatalf("forward %v: Count(%v) = %d, want %d", d.forward, t1, got, want)
			}
			for _, t2 := range bounds {
				wantLE, want := windowOf(d.ts, t1, t2)
				le, got := tr.window(d.forward, t1, t2, nil)
				if le != wantLE || len(got) != len(want) {
					t.Fatalf("forward %v: window(%v,%v) = %d before, %d inside; want %d, %d", d.forward, t1, t2, le, len(got), wantLE, len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("forward %v: window(%v,%v) event %d = %v, want %v", d.forward, t1, t2, i, got[i], want[i])
					}
				}
			}
		}
	}
}
