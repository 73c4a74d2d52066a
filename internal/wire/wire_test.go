package wire

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/planar"
)

// randEvents builds a plausible mixed event stream. quantized selects
// integer-second timestamps (exactly representable on the DefaultTick
// grid) or irrational-ish raw ones.
func randEvents(rng *rand.Rand, n int, quantized bool) []core.Event {
	events := make([]core.Event, n)
	t := 0.0
	for i := range events {
		if quantized {
			t += float64(rng.Intn(30))
		} else {
			t += rng.Float64() * 30
		}
		switch rng.Intn(4) {
		case 0:
			events[i] = core.EnterEvent(planar.NodeID(rng.Intn(500)), t)
		case 1:
			events[i] = core.LeaveEvent(planar.NodeID(rng.Intn(500)), t)
		default:
			events[i] = core.MoveEvent(planar.EdgeID(rng.Intn(2000)), planar.NodeID(rng.Intn(500)), t)
		}
	}
	return events
}

func TestIngestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name      string
		quantized bool
		tick      float64
	}{
		{"quantized", true, DefaultTick},
		{"raw-fallback", false, DefaultTick},
		{"raw-forced", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{1, 2, 127, 128, 129, 1000} {
				events := randEvents(rng, n, tc.quantized)
				enc := GetEncoder()
				frame := enc.EncodeIngest(events, tc.tick)
				kind, payload, rest, err := ParseFrame(frame)
				if err != nil {
					t.Fatalf("n=%d: ParseFrame: %v", n, err)
				}
				if kind != KindIngest || len(rest) != 0 {
					t.Fatalf("n=%d: kind=%d rest=%d", n, kind, len(rest))
				}
				dec := GetDecoder()
				got, err := dec.DecodeIngest(payload)
				if err != nil {
					t.Fatalf("n=%d: DecodeIngest: %v", n, err)
				}
				if len(got) != len(events) {
					t.Fatalf("n=%d: decoded %d events", n, len(got))
				}
				for i := range events {
					if got[i] != events[i] {
						t.Fatalf("n=%d: event %d = %+v, want %+v (bit-identity violated)", n, i, got[i], events[i])
					}
				}
				PutDecoder(dec)
				PutEncoder(enc)
			}
		})
	}
}

// TestIngestQuantizedIsCompact: on-grid streams must actually take the
// delta path — a 1000-event integer-second batch is far smaller than
// raw 8-byte timestamps would be.
func TestIngestQuantizedIsCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	events := randEvents(rng, 1000, true)
	q := MarshalIngest(events, DefaultTick)
	raw := MarshalIngest(events, 0)
	if len(q) >= len(raw)/2 {
		t.Errorf("quantized frame %dB not compact vs raw %dB", len(q), len(raw))
	}
}

// TestIngestOffGridFallsBack: one off-grid timestamp must push the
// whole batch onto the raw path and still round-trip bit-identically.
func TestIngestOffGridFallsBack(t *testing.T) {
	events := []core.Event{
		core.MoveEvent(3, 1, 10),
		core.MoveEvent(4, 2, 10.5+1e-9),
		core.EnterEvent(7, math.Pi*1e4),
	}
	frame := MarshalIngest(events, DefaultTick)
	_, payload, _, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	// The mode byte follows the count varint (1 byte for 3 events).
	if payload[1] == tsQuantized {
		t.Fatal("off-grid batch encoded as quantized")
	}
	var d Decoder
	got, err := d.DecodeIngest(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestIngestNegativeZeroKeepsSign: -0 == +0, so "reconstructs exactly"
// is a comparison of bits, or an integral batch holding a -0 would be
// quantized and come back +0.
func TestIngestNegativeZeroKeepsSign(t *testing.T) {
	events := []core.Event{core.MoveEvent(3, 1, math.Copysign(0, -1)), core.MoveEvent(3, 1, 1)}
	_, payload, _, err := ParseFrame(MarshalIngest(events, DefaultTick))
	if err != nil {
		t.Fatal(err)
	}
	if payload[1] != tsRaw {
		t.Fatalf("a batch holding -0 took timestamp mode %d", payload[1])
	}
	var d Decoder
	got, err := d.DecodeIngest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(got[0].T) {
		t.Fatalf("-0 decoded as %v", got[0].T)
	}
}

// TestAppendIngestPayload: the body-only encode is the ingest frame's
// payload byte for byte, appended behind whatever dst holds, and moves
// no wire counter; an event of unknown kind, which the frame encoder
// spells as a byte the decoder rejects, is refused instead.
func TestAppendIngestPayload(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	rng := rand.New(rand.NewSource(12))
	var e Encoder
	for _, quantized := range []bool{true, false} {
		events := randEvents(rng, 300, quantized)
		frame := MarshalIngest(events, DefaultTick)
		out, in := obs.Default.Counter("wire.bytes_out").Value(), obs.Default.Counter("wire.frames_total.ingest").Value()
		got, err := e.AppendIngestPayload([]byte("prefix"), events, DefaultTick)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:6], []byte("prefix")) || !bytes.Equal(got[6:], frame[HeaderSize:]) {
			t.Fatalf("quantized=%v: appended payload differs from the frame's", quantized)
		}
		if obs.Default.Counter("wire.bytes_out").Value() != out || obs.Default.Counter("wire.frames_total.ingest").Value() != in {
			t.Fatalf("quantized=%v: the body-only encode moved a wire counter", quantized)
		}
	}
	bad := []core.Event{core.MoveEvent(1, 2, 3), {T: 4, Kind: 9}}
	if _, err := e.AppendIngestPayload(nil, bad, DefaultTick); err == nil || !strings.Contains(err.Error(), "event 1 has unknown kind 9") {
		t.Fatalf("unknown kind: err = %v", err)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	q := QueryFrame{
		Rect:  [4]float64{-12.5, 3.25, 900.125, 4441},
		T1:    3600.5,
		T2:    7200.25,
		Kind:  QueryTransient,
		Bound: BoundUpper,
	}
	kind, payload, _, err := ParseFrame(MarshalQuery(q))
	if err != nil || kind != KindQuery {
		t.Fatalf("kind=%d err=%v", kind, err)
	}
	got, err := DecodeQuery(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != q {
		t.Fatalf("round-trip %+v != %+v", got, q)
	}
}

func TestResultRoundTrip(t *testing.T) {
	for _, r := range []ResultFrame{
		{Count: 41, RegionFaces: 9, NodesAccessed: 12, Messages: 30, Hops: 4, TotalHops: 19, EdgesAccessed: 22},
		{Count: math.Float64frombits(0x3FF123456789ABCD), Missed: true},
		{
			Count: -3.5, Degraded: true,
			Degradation: DegradationFrame{UnobservedCuts: 2, Lower: -8.25, Upper: 1.25, FailedNodes: 4},
		},
	} {
		kind, payload, _, err := ParseFrame(MarshalResult(r))
		if err != nil || kind != KindResult {
			t.Fatalf("kind=%d err=%v", kind, err)
		}
		got, err := DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Fatalf("round-trip %+v != %+v", got, r)
		}
	}
}

// TestResultVersion3Refused: a version-3 degraded result carried six
// counters after its bounds — dead perimeter sensors, unobserved cuts,
// rerouted legs, retries, drops, failed nodes — where this version
// carries two. ParseFrame refuses its header by name, and its body
// alone does not decode either.
func TestResultVersion3Refused(t *testing.T) {
	enc := GetEncoder()
	defer PutEncoder(enc)
	enc.begin(KindResult)
	enc.buf = append(enc.buf, resDegraded)
	enc.f64(-3.5)
	for _, v := range []uint64{9, 12, 30, 4, 19, 22} {
		enc.uvarint(v)
	}
	enc.f64(-8.25)
	enc.f64(1.25)
	for _, v := range []uint64{3, 2, 1, 7, 5, 4} {
		enc.uvarint(v)
	}
	v3 := append([]byte(nil), enc.finish()...)
	if _, err := DecodeResult(v3[HeaderSize:]); err == nil {
		t.Fatal("a version-3 degraded result body decoded")
	}
	v3[2] = 3
	if _, _, _, err := ParseFrame(v3); err == nil || !strings.Contains(err.Error(), "unknown version 3 (want 4)") {
		t.Fatalf("a version-3 result frame parsed: %v", err)
	}
}

func TestIngestResultAndErrorRoundTrip(t *testing.T) {
	kind, payload, _, err := ParseFrame(MarshalIngestResult(512))
	if err != nil || kind != KindIngestResult {
		t.Fatalf("kind=%d err=%v", kind, err)
	}
	if n, err := DecodeIngestResult(payload); err != nil || n != 512 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	kind, payload, _, err = ParseFrame(MarshalError(429, "server at capacity"))
	if err != nil || kind != KindError {
		t.Fatalf("kind=%d err=%v", kind, err)
	}
	status, msg, err := DecodeError(payload)
	if err != nil || status != 429 || msg != "server at capacity" {
		t.Fatalf("status=%d msg=%q err=%v", status, msg, err)
	}
}

// TestDecodeRejections is the corruption table: every malformed frame
// class must fail with a corrupt error, never a panic or a silent
// misparse.
func TestDecodeRejections(t *testing.T) {
	valid := MarshalIngest(randEvents(rand.New(rand.NewSource(1)), 16, true), DefaultTick)
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"empty", nil, "truncated header"},
		{"short-header", valid[:HeaderSize-1], "truncated header"},
		{"truncated-payload", valid[:len(valid)-3], "truncated payload"},
		{"bad-magic", mutate(func(b []byte) []byte { b[0] ^= 0xFF; return b }), "bad magic"},
		{"unknown-version", mutate(func(b []byte) []byte { b[2] = Version + 9; return b }), "unknown version"},
		{"unknown-kind", mutate(func(b []byte) []byte { b[3] = 99; return b }), "unknown frame kind"},
		{"oversize-length", mutate(func(b []byte) []byte {
			b[4], b[5], b[6], b[7] = 0xFF, 0xFF, 0xFF, 0x7F
			return b
		}), "exceeds limit"},
		{"bad-crc", mutate(func(b []byte) []byte { b[HeaderSize] ^= 0x01; return b }), "CRC mismatch"},
		{"flipped-payload-bit", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }), "CRC mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := ParseFrame(tc.b)
			if err == nil {
				t.Fatal("malformed frame accepted")
			}
			if !IsCorrupt(err) {
				t.Fatalf("err %v is not a corruption error", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %q does not mention %q", err, tc.want)
			}
			// The streaming path must reject it too (or report I/O
			// truncation for short frames).
			var d Decoder
			if _, _, err := d.ReadFrame(bytes.NewReader(tc.b)); err == nil {
				t.Fatal("ReadFrame accepted malformed frame")
			}
		})
	}
}

// TestDecodeIngestPayloadRejections covers payload-level structural
// corruption behind a valid frame wrapper.
func TestDecodeIngestPayloadRejections(t *testing.T) {
	reframe := func(payload []byte) []byte {
		// Wrap an arbitrary payload in a valid header+CRC.
		var e Encoder
		e.begin(KindIngest)
		e.buf = append(e.buf, payload...)
		return append([]byte(nil), e.finish()...)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty-payload", nil},
		{"implausible-count", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}},
		{"bad-mode", []byte{1, 7}},
		{"bad-tick-zero", append([]byte{1, tsQuantized}, make([]byte, 8)...)},
		{"unknown-event-kind", []byte{1, tsRaw, 0x77, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"truncated-event", []byte{2, tsRaw, evEnter, 0, 0, 0, 0, 0, 0, 0, 0, 5}},
		{"trailing-bytes", func() []byte {
			_, p, _, _ := ParseFrame(MarshalIngest([]core.Event{core.EnterEvent(1, 2)}, 0))
			return append(append([]byte(nil), p...), 0)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, payload, _, err := ParseFrame(reframe(tc.payload))
			if err != nil {
				t.Fatalf("frame wrapper rejected: %v", err)
			}
			var d Decoder
			if _, err := d.DecodeIngest(payload); err == nil {
				t.Fatal("malformed ingest payload accepted")
			} else if !IsCorrupt(err) {
				t.Fatalf("err %v is not a corruption error", err)
			}
		})
	}
}

// TestSteadyStateZeroAllocs proves the pooled encode/decode paths do
// not allocate per frame once warm.
func TestSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	events := randEvents(rng, 512, true)
	enc := GetEncoder()
	defer PutEncoder(enc)
	dec := GetDecoder()
	defer PutDecoder(dec)

	frame := append([]byte(nil), enc.EncodeIngest(events, DefaultTick)...)
	_, payload, _, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.DecodeIngest(payload); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(200, func() {
		enc.EncodeIngest(events, DefaultTick)
	}); n != 0 {
		t.Errorf("EncodeIngest allocates %.1f/frame, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		_, p, _, err := ParseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.DecodeIngest(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseFrame+DecodeIngest allocates %.1f/frame, want 0", n)
	}

	rdr := bytes.NewReader(frame)
	if n := testing.AllocsPerRun(200, func() {
		rdr.Reset(frame)
		if _, _, err := dec.ReadFrame(rdr); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadFrame allocates %.1f/frame, want 0", n)
	}

	rf := ResultFrame{Count: 17, RegionFaces: 3, NodesAccessed: 5, Messages: 9, Hops: 2, TotalHops: 6, EdgesAccessed: 11}
	if n := testing.AllocsPerRun(200, func() {
		enc.EncodeResult(rf)
	}); n != 0 {
		t.Errorf("EncodeResult allocates %.1f/frame, want 0", n)
	}
	resFrame := append([]byte(nil), enc.EncodeResult(rf)...)
	if n := testing.AllocsPerRun(200, func() {
		_, p, _, err := ParseFrame(resFrame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResult(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeResult allocates %.1f/frame, want 0", n)
	}
}

func BenchmarkEncodeIngest512(b *testing.B) {
	events := randEvents(rand.New(rand.NewSource(5)), 512, true)
	enc := GetEncoder()
	defer PutEncoder(enc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeIngest(events, DefaultTick)
	}
}

func BenchmarkDecodeIngest512(b *testing.B) {
	events := randEvents(rand.New(rand.NewSource(5)), 512, true)
	frame := MarshalIngest(events, DefaultTick)
	dec := GetDecoder()
	defer PutDecoder(dec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, payload, _, err := ParseFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dec.DecodeIngest(payload); err != nil {
			b.Fatal(err)
		}
	}
}
