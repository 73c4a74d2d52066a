package wire

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// These tests cover the client side of the cluster transport: the
// router's cellClient parses every response with ParseFrame, so a cell
// (or a middlebox) returning a truncated, oversized, wrong-version, or
// otherwise mangled response must surface as a structured corruption
// error the client can classify as retryable — never as a panic or a
// silently wrong value.

// helloAckResponse builds a valid KindHelloAck response frame, the
// frame a router reads most often.
func helloAckResponse() []byte {
	enc := GetEncoder()
	defer PutEncoder(enc)
	frame := enc.EncodeHelloAck(HelloAckFrame{Cell: 3, Clock: 1234.5, NumEvents: 99, Applied: 7})
	return append([]byte(nil), frame...)
}

func TestClientDecodeRejectsMangledResponses(t *testing.T) {
	valid := helloAckResponse()
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"empty-response", nil, "truncated header"},
		{"header-only-prefix", valid[:HeaderSize/2], "truncated header"},
		{"truncated-mid-payload", valid[:len(valid)-2], "truncated payload"},
		{"truncated-after-header", valid[:HeaderSize], "truncated payload"},
		{"wrong-version", mutate(func(b []byte) []byte { b[2] = Version + 1; return b }), "unknown version"},
		{"version-zero", mutate(func(b []byte) []byte { b[2] = 0; return b }), "unknown version"},
		// Version 1 sent the perimeter ops a junction list this version
		// does not read, version 2 a world-junction set in HelloAck, and
		// version 3 four fault counters in a degraded result: a peer of
		// any of them is refused by name, at Hello, not mid-query.
		{"version-one", mutate(func(b []byte) []byte { b[2] = 1; return b }), "unknown version 1 (want 4)"},
		{"version-two", mutate(func(b []byte) []byte { b[2] = 2; return b }), "unknown version 2 (want 4)"},
		{"version-three", mutate(func(b []byte) []byte { b[2] = 3; return b }), "unknown version 3 (want 4)"},
		{"oversized-declared-length", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], MaxPayload+1)
			return b
		}), "exceeds limit"},
		{"length-beyond-body", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], uint32(len(b)))
			return b
		}), "truncated payload"},
		{"bad-magic", mutate(func(b []byte) []byte { b[0], b[1] = 'X', 'X'; return b }), "bad magic"},
		{"unknown-kind", mutate(func(b []byte) []byte { b[3] = KindPartial + 1; return b }), "unknown frame kind"},
		{"corrupt-payload", mutate(func(b []byte) []byte { b[HeaderSize] ^= 0x40; return b }), "CRC mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := ParseFrame(tc.b)
			if err == nil {
				t.Fatal("mangled response accepted")
			}
			if !IsCorrupt(err) {
				t.Fatalf("err %v is not a corruption error (client could not classify it as retryable)", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestClientDecodePayloadRejections covers structurally corrupt cluster
// payloads behind a valid frame wrapper — what the client's typed
// decoders (DecodeHelloAck, DecodePartial) must refuse.
func TestClientDecodePayloadRejections(t *testing.T) {
	reframe := func(kind byte, payload []byte) []byte {
		var e Encoder
		e.begin(kind)
		e.buf = append(e.buf, payload...)
		return append([]byte(nil), e.finish()...)
	}
	t.Run("helloack", func(t *testing.T) {
		for _, tc := range []struct {
			name    string
			payload []byte
		}{
			{"empty", nil},
			{"truncated-counters", []byte{3, 0, 0}},
			{"clock-cut-short", func() []byte {
				_, p, _, _ := ParseFrame(helloAckResponse())
				return p[:len(p)-3]
			}()},
		} {
			t.Run(tc.name, func(t *testing.T) {
				_, payload, _, err := ParseFrame(reframe(KindHelloAck, tc.payload))
				if err != nil {
					t.Fatalf("frame wrapper rejected: %v", err)
				}
				if _, err := DecodeHelloAck(payload); err == nil {
					t.Fatal("malformed hello-ack payload accepted")
				} else if !IsCorrupt(err) {
					t.Fatalf("err %v is not a corruption error", err)
				}
			})
		}
	})
	t.Run("partial", func(t *testing.T) {
		for _, tc := range []struct {
			name    string
			payload []byte
			// retired marks an op byte of an earlier protocol generation:
			// the cell's decoder (DecodeScatter) must refuse it too.
			retired bool
		}{
			{name: "empty"},
			{name: "unknown-op", payload: []byte{OpStaticSteps + 1}},
			{name: "op-zero", payload: []byte{0}},
			{name: "retired-op-2", payload: []byte{2, 0}, retired: true},
			{name: "retired-op-4", payload: []byte{4, 0}, retired: true},
			{name: "retired-op-6", payload: []byte{6, 0, 0, 0, 0, 0, 0, 0, 0}, retired: true},
			{name: "retired-op-7", payload: []byte{7, 0}, retired: true},
			{name: "retired-op-8", payload: []byte{8, 0}, retired: true},
			{name: "retired-op-9", payload: []byte{9, 0}, retired: true},
			{name: "scalar-cut-short", payload: []byte{OpCountCuts, 1, 2, 3}},
			{name: "steps-cut-short", payload: append(append([]byte{OpStaticSteps}, make([]byte, 8)...), 2, 0, 0, 0, 0, 0, 0, 0, 0, 2)},
		} {
			t.Run(tc.name, func(t *testing.T) {
				_, payload, _, err := ParseFrame(reframe(KindPartial, tc.payload))
				if err != nil {
					t.Fatalf("frame wrapper rejected: %v", err)
				}
				if _, err := DecodePartial(payload); err == nil {
					t.Fatal("malformed partial payload accepted")
				} else if !IsCorrupt(err) {
					t.Fatalf("err %v is not a corruption error", err)
				}
				if !tc.retired {
					return
				}
				if _, err := new(Decoder).DecodeScatter(payload); err == nil {
					t.Fatal("retired op accepted as a scatter frame")
				} else if !IsCorrupt(err) {
					t.Fatalf("scatter err %v is not a corruption error", err)
				}
			})
		}
		// The live ops are exactly liveOps; every other byte is refused.
		for op := 0; op < 256; op++ {
			if knownOp(byte(op)) != liveOps[byte(op)] {
				t.Errorf("knownOp(%d) = %v, want %v", op, knownOp(byte(op)), liveOps[byte(op)])
			}
		}
	})
}

// TestClusterFrameRoundTrips pins bit-identity of every cluster frame
// kind through encode → ParseFrame → decode.
func TestClusterFrameRoundTrips(t *testing.T) {
	enc := GetEncoder()
	defer PutEncoder(enc)
	dec := GetDecoder()
	defer PutDecoder(dec)

	roundTrip := func(t *testing.T, frame []byte, wantKind byte) []byte {
		t.Helper()
		kind, payload, rest, err := ParseFrame(frame)
		if err != nil {
			t.Fatalf("ParseFrame: %v", err)
		}
		if kind != wantKind || len(rest) != 0 {
			t.Fatalf("kind=%d rest=%d, want kind=%d rest=0", kind, len(rest), wantKind)
		}
		return payload
	}

	t.Run("hello", func(t *testing.T) {
		h := HelloFrame{ManifestHash: 0xDEADBEEFCAFE, Cell: 5}
		got, err := DecodeHello(roundTrip(t, enc.EncodeHello(h), KindHello))
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("got %+v, want %+v", got, h)
		}
	})
	t.Run("helloack", func(t *testing.T) {
		a := HelloAckFrame{Cell: 2, Clock: math.Pi * 1e4, NumEvents: 12345, Applied: 101}
		got, err := DecodeHelloAck(roundTrip(t, enc.EncodeHelloAck(a), KindHelloAck))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("got %+v, want %+v", got, a)
		}
	})
	// Decoders may materialize an absent list as empty rather than nil
	// (and vice versa); both mean "no elements" to every consumer.
	nilEmpty := func(v any) {
		rv := reflect.ValueOf(v).Elem()
		for i := 0; i < rv.NumField(); i++ {
			f := rv.Field(i)
			if f.Kind() == reflect.Slice && f.Len() == 0 && !f.IsNil() {
				f.Set(reflect.Zero(f.Type()))
			}
		}
	}
	t.Run("scatter-ops", func(t *testing.T) {
		frames := []ScatterFrame{
			// Cut lists mix road ids and the world-edge ids behind them
			// (here a world of 1000 roads): the zigzag delta carries the
			// jump, in either direction.
			{Op: OpCountCuts, Cuts: []core.CutRoad{{Road: 7, Inside: 3}, {Road: 1001, Inside: 1}}, T1: 10},
			{Op: OpCutFlow, Cuts: []core.CutRoad{{Road: 4, Inside: 9}, {Road: 1002, Inside: 2}, {Road: 1006, Inside: 6}}, T1: 5, T2: 17.25},
			{Op: OpStaticSteps, Cuts: []core.CutRoad{{Road: 1008, Inside: 8}, {Road: 11, Inside: 4}, {Road: 3, Inside: 9}}, T1: 1, T2: 2},
			{Op: OpRoadCrossings, Road: 3, Toward: 1, T1: 99},
			{Op: OpRoadCrossings, Road: 1012, Toward: 12, T1: 7},
			{Op: OpValidate, Events: []core.Event{
				core.MoveEvent(5, 2, 100),
				core.EnterEvent(9, 101),
				core.LeaveEvent(9, 102.5),
			}, Tick: DefaultTick},
		}
		for _, f := range frames {
			got, err := dec.DecodeScatter(roundTrip(t, enc.EncodeScatter(f), KindScatter))
			if err != nil {
				t.Fatalf("op %d: %v", f.Op, err)
			}
			// OpValidate events alias the decoder buffer; copy before the
			// next decode reuses it.
			got.Events = append([]core.Event(nil), got.Events...)
			// Tick is an encoding hint, not payload: off-grid batches fall
			// back to raw timestamps and drop it.
			got.Tick, f.Tick = 0, 0
			nilEmpty(&got)
			nilEmpty(&f)
			if !reflect.DeepEqual(got, f) {
				t.Fatalf("op %d: got %+v, want %+v", f.Op, got, f)
			}
		}
	})
	t.Run("partial-ops", func(t *testing.T) {
		frames := []PartialFrame{
			{Op: OpCountCuts, Value: 42.5},
			{Op: OpCutFlow, Value: -7},
			{Op: OpStaticSteps, Value: 17, Events: []core.SignedEvent{
				{T: 1, Delta: 1}, {T: 2, Delta: -3}, {T: 9.75, Delta: 2},
			}},
			{Op: OpStaticSteps, Value: -2},
			{Op: OpRoadCrossings, Value: 3},
		}
		for _, p := range frames {
			got, err := DecodePartial(roundTrip(t, enc.EncodePartial(p), KindPartial))
			if err != nil {
				t.Fatalf("op %d: %v", p.Op, err)
			}
			nilEmpty(&got)
			nilEmpty(&p)
			if !reflect.DeepEqual(got, p) {
				t.Fatalf("op %d: got %+v, want %+v", p.Op, got, p)
			}
		}
	})
}
