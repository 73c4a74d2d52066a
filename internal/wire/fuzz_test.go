package wire

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/planar"
)

// FuzzWireDecode throws arbitrary bytes at the full decode surface:
// frame parsing plus every payload decoder. The invariants:
//
//   - no panic, ever, on any input;
//   - a frame ParseFrame accepts decodes under its kind's decoder
//     without panicking, and an accepted ingest payload re-encodes to a
//     batch that decodes back bit-identically (decode is a left inverse
//     of encode on its accepted range).
//
// Seeded with valid frames of every kind so the fuzzer starts from the
// interesting region of the input space; `make check` runs a 10s smoke
// (go test -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wire).
func FuzzWireDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	f.Add(MarshalIngest(randEvents(rng, 40, true), DefaultTick))
	f.Add(MarshalIngest(randEvents(rng, 7, false), DefaultTick))
	f.Add(MarshalQuery(QueryFrame{Rect: [4]float64{0, 0, 100, 100}, T1: 10, T2: 90, Kind: QueryTransient}))
	f.Add(MarshalResult(ResultFrame{Count: 12, Degraded: true, Degradation: DegradationFrame{Lower: 8, Upper: 16}}))
	f.Add(MarshalIngestResult(3))
	f.Add(MarshalError(400, "bad"))
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, _, err := ParseFrame(data)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("ParseFrame error %v is not a corruption error", err)
			}
			return
		}
		var d Decoder
		switch kind {
		case KindIngest:
			events, err := d.DecodeIngest(payload)
			if err != nil {
				return
			}
			// Accepted batches must survive a re-encode/decode cycle
			// bit-identically (both timestamp modes).
			snapshot := append([]core.Event(nil), events...)
			for _, tick := range []float64{DefaultTick, 0} {
				var d2 Decoder
				_, p2, _, err := ParseFrame(MarshalIngest(snapshot, tick))
				if err != nil {
					t.Fatalf("re-encoded frame rejected: %v", err)
				}
				got, err := d2.DecodeIngest(p2)
				if err != nil {
					t.Fatalf("re-encoded payload rejected: %v", err)
				}
				for i := range snapshot {
					if got[i] != snapshot[i] {
						t.Fatalf("tick=%v: event %d = %+v, want %+v", tick, i, got[i], snapshot[i])
					}
				}
			}
		case KindQuery:
			if q, err := DecodeQuery(payload); err == nil {
				if _, _, _, err := ParseFrame(MarshalQuery(q)); err != nil {
					t.Fatalf("re-encoded query rejected: %v", err)
				}
			}
		case KindResult:
			if r, err := DecodeResult(payload); err == nil {
				got, err := DecodeResult(mustPayload(t, MarshalResult(r)))
				if err != nil || !resultBitsEqual(got, r) {
					t.Fatalf("result re-encode mismatch: %+v vs %+v (%v)", got, r, err)
				}
			}
		case KindIngestResult:
			_, _ = DecodeIngestResult(payload)
		case KindError:
			_, _, _ = DecodeError(payload)
		}
	})
}

// resultBitsEqual compares result frames with float64 bit equality, so
// a NaN count (representable on the wire) still counts as a faithful
// round-trip.
func resultBitsEqual(a, b ResultFrame) bool {
	if math.Float64bits(a.Count) != math.Float64bits(b.Count) ||
		math.Float64bits(a.Degradation.Lower) != math.Float64bits(b.Degradation.Lower) ||
		math.Float64bits(a.Degradation.Upper) != math.Float64bits(b.Degradation.Upper) {
		return false
	}
	a.Count, b.Count = 0, 0
	a.Degradation.Lower, b.Degradation.Lower = 0, 0
	a.Degradation.Upper, b.Degradation.Upper = 0, 0
	return a == b
}

func mustPayload(t testing.TB, frame []byte) []byte {
	t.Helper()
	_, payload, _, err := ParseFrame(frame)
	if err != nil {
		t.Fatalf("ParseFrame on self-encoded frame: %v", err)
	}
	return payload
}

// FuzzClusterFrames throws arbitrary bytes at the router ↔ cell frames a
// cell's /v1/cell endpoint and a router's client decode off the network
// (DecodeScatter, DecodePartial, DecodeHelloAck). The invariants:
//
//   - no panic, ever, on any input;
//   - the retired op bytes 2, 4, 6, 7, 8 and 9 never decode, in either
//     direction;
//   - whatever decodes re-encodes to a frame that decodes, and encoding
//     that again gives the same bytes: one trip through the codec is
//     canonical. (The input itself need not be — binary.Uvarint reads
//     padded varints the encoder never writes, and an OpValidate batch
//     may arrive with raw timestamps the encoder would quantize — so the
//     comparison starts from the first re-encoding, which for an
//     encoder-made input is the input.)
//   - an accepted HelloAck has a finite clock: the router's local phase 1
//     trusts it (a -Inf clock would prove every batch safe).
//
// Seeded with one frame of every live op, handshake acks that carry an
// applied number (and one with an infinite clock, one of the layout
// before the applied number and one of version 2, a junction list ahead
// of the applied number, none of which may decode), the frames an earlier protocol
// generation sent for every retired one, and a cut whose inside junction
// is no endpoint of its road (well-formed on the wire; the cell's
// checkScatter refuses it); `make check` runs a 10s smoke.
// liveOps are the scatter op bytes of this protocol version, spelled
// out as numbers: the tests must not inherit knownOp's opinion.
var liveOps = map[byte]bool{1: true, 3: true, 5: true, 10: true, 11: true}

func FuzzClusterFrames(f *testing.F) {
	var enc Encoder
	frame := func(b []byte) []byte { return append([]byte(nil), b...) }
	// Roads, then the world edges behind them (of a world of 1000 roads).
	cuts := []core.CutRoad{{Road: 7, Inside: 3}, {Road: 2, Inside: 9}, {Road: 1001, Inside: 1}, {Road: 1006, Inside: 6}}
	js := []planar.NodeID{1, 6}
	scatters := []ScatterFrame{
		{Op: OpCountCuts, Cuts: cuts, T1: 10},
		{Op: OpCutFlow, Cuts: cuts, T1: 5, T2: 17.25},
		{Op: OpRoadCrossings, Road: 3, Toward: 1, T1: 99},
		{Op: OpRoadCrossings, Road: 1012, Toward: 12, T1: 7},
		{Op: OpValidate, Events: []core.Event{core.MoveEvent(5, 2, 100), core.EnterEvent(9, 101), core.LeaveEvent(9, 102.5)}, Tick: DefaultTick},
		{Op: OpStaticSteps, Cuts: cuts, T1: 100, T2: 900},
		{Op: OpCutFlow, Cuts: []core.CutRoad{{Road: 7, Inside: 99}}, T1: 1, T2: 2},
	}
	partials := []PartialFrame{
		{Op: OpCountCuts, Value: 42},
		{Op: OpCutFlow, Value: -7},
		{Op: OpRoadCrossings, Value: 3},
		{Op: OpValidate},
		{Op: OpStaticSteps, Value: 17, Events: []core.SignedEvent{{T: 101, Delta: 1}, {T: 250, Delta: -3}, {T: 899.5, Delta: 2}}},
	}
	for _, sf := range scatters {
		b := frame(enc.EncodeScatter(sf))
		f.Add(b)
		// An encoder-made frame is already canonical.
		sf2, err := new(Decoder).DecodeScatter(mustPayload(f, b))
		if err != nil || !bytes.Equal(enc.EncodeScatter(sf2), b) {
			f.Fatalf("scatter op %d does not round-trip to its own bytes (%v)", sf.Op, err)
		}
	}
	for _, pf := range partials {
		b := frame(enc.EncodePartial(pf))
		f.Add(b)
		pf2, err := DecodePartial(mustPayload(f, b))
		if err != nil || !bytes.Equal(enc.EncodePartial(pf2), b) {
			f.Fatalf("partial op %d does not round-trip to its own bytes (%v)", pf.Op, err)
		}
	}
	for _, a := range []HelloAckFrame{
		{Cell: 2, Clock: 1500.5, NumEvents: 40, Applied: 17},
		{Cell: 0, Clock: 0, Applied: 0},
		{Cell: 3, Clock: -12, NumEvents: 1 << 20, Applied: math.MaxUint64},
	} {
		b := frame(enc.EncodeHelloAck(a))
		f.Add(b)
		if a2, err := DecodeHelloAck(mustPayload(f, b)); err != nil || !bytes.Equal(enc.EncodeHelloAck(a2), b) {
			f.Fatalf("hello ack %+v does not round-trip to its own bytes (%v)", a, err)
		}
	}
	for _, clock := range []float64{math.Inf(-1), math.Inf(1)} {
		b := frame(enc.EncodeHelloAck(HelloAckFrame{Clock: clock, Applied: 3}))
		if _, err := DecodeHelloAck(mustPayload(f, b)); err == nil {
			f.Fatalf("hello ack with clock %v decoded", clock)
		}
		f.Add(b)
	}
	// junctions spells a junction list as earlier generations did: a
	// varint count, then zigzag deltas.
	junctions := func(js []planar.NodeID) {
		enc.uvarint(uint64(len(js)))
		prev := int64(0)
		for _, j := range js {
			enc.svarint(int64(j) - prev)
			prev = int64(j)
		}
	}
	enc.begin(KindHelloAck)
	enc.uvarint(1)
	enc.f64(10)
	enc.uvarint(5)
	junctions(js)
	older := frame(enc.finish())
	if _, err := DecodeHelloAck(mustPayload(f, older)); err == nil {
		f.Fatal("a hello ack without an applied number decoded")
	}
	f.Add(older)
	// Version 2's HelloAck: the cell's world-junction set ahead of the
	// applied number, under a version-2 header. ParseFrame refuses the
	// header, and the body alone does not decode either.
	enc.begin(KindHelloAck)
	enc.uvarint(2)
	enc.f64(1500.5)
	enc.uvarint(40)
	junctions(js)
	enc.uvarint(17)
	v2 := frame(enc.finish())
	if _, err := DecodeHelloAck(v2[HeaderSize:]); err == nil {
		f.Fatal("a version-2 hello ack body decoded")
	}
	v2[2] = 2
	if _, _, _, err := ParseFrame(v2); err == nil || !strings.Contains(err.Error(), "unknown version 2 (want 4)") {
		f.Fatalf("a version-2 frame parsed: %v", err)
	}
	f.Add(v2)
	// What routers and cells of earlier protocol generations exchanged
	// under the retired bytes: op 2 (probe-time vector → value vector),
	// op 4 (event-list request and reply), ops 7 and 8 (interval counts),
	// op 6 (a gateway's prefix count) and op 9 (the world-junction fetch),
	// and the perimeter ops as version 1 spelled them, a junction list
	// behind the cuts.
	retired := func(kind, op byte, body func()) {
		enc.begin(kind)
		enc.buf = append(enc.buf, op)
		body()
		f.Add(frame(enc.finish()))
	}
	vector := func(vs ...float64) {
		enc.uvarint(uint64(len(vs)))
		for _, v := range vs {
			enc.f64(v)
		}
	}
	retired(KindScatter, opRetired2, func() { enc.encodeCuts(cuts); junctions(js); vector(1, 2.5, 3) })
	retired(KindPartial, opRetired2, func() { vector(1, -2, 3) })
	for _, kind := range []byte{KindScatter, KindPartial} {
		retired(kind, opRetired4, func() { enc.f64(1); enc.f64(2); enc.uvarint(0) })
	}
	retired(KindScatter, opRetired7, func() { enc.uvarint(6); enc.uvarint(2); enc.f64(1); enc.f64(2) })
	retired(KindPartial, opRetired7, func() { enc.f64(2) })
	retired(KindScatter, opRetired8, func() { enc.uvarint(13); enc.buf = append(enc.buf, 0); enc.f64(3); enc.f64(4) })
	retired(KindPartial, opRetired8, func() { enc.f64(0) })
	retired(KindScatter, opRetired6, func() { enc.uvarint(12); enc.buf = append(enc.buf, 1); enc.f64(7) })
	retired(KindPartial, opRetired6, func() { enc.f64(1) })
	retired(KindScatter, opRetired9, func() {})
	retired(KindPartial, opRetired9, func() { junctions(js) })
	retired(KindScatter, OpCountCuts, func() { enc.encodeCuts(cuts[:2]); junctions(js); enc.f64(10) })
	retired(KindScatter, OpStaticSteps, func() { enc.encodeCuts(cuts[:2]); junctions(js); enc.f64(100); enc.f64(900) })

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, _, err := ParseFrame(data)
		if err != nil {
			return
		}
		var enc Encoder
		switch kind {
		case KindScatter:
			var d Decoder
			sf, err := d.DecodeScatter(payload)
			if err != nil {
				if !IsCorrupt(err) {
					t.Fatalf("DecodeScatter error %v is not a corruption error", err)
				}
				return
			}
			if !liveOps[sf.Op] {
				t.Fatalf("scatter op %d decoded", sf.Op)
			}
			once := frame(enc.EncodeScatter(sf))
			var d2 Decoder
			sf2, err := d2.DecodeScatter(mustPayload(t, once))
			if err != nil {
				t.Fatalf("re-encoded scatter op %d rejected: %v", sf.Op, err)
			}
			if twice := enc.EncodeScatter(sf2); !bytes.Equal(once, twice) {
				t.Fatalf("scatter op %d: re-encoding is not canonical:\n%x\n%x", sf.Op, once, twice)
			}
		case KindPartial:
			pf, err := DecodePartial(payload)
			if err != nil {
				if !IsCorrupt(err) {
					t.Fatalf("DecodePartial error %v is not a corruption error", err)
				}
				return
			}
			if !liveOps[pf.Op] {
				t.Fatalf("partial op %d decoded", pf.Op)
			}
			once := frame(enc.EncodePartial(pf))
			pf2, err := DecodePartial(mustPayload(t, once))
			if err != nil {
				t.Fatalf("re-encoded partial op %d rejected: %v", pf.Op, err)
			}
			if twice := enc.EncodePartial(pf2); !bytes.Equal(once, twice) {
				t.Fatalf("partial op %d: re-encoding is not canonical:\n%x\n%x", pf.Op, once, twice)
			}
		case KindHelloAck:
			a, err := DecodeHelloAck(payload)
			if err != nil {
				if !IsCorrupt(err) {
					t.Fatalf("DecodeHelloAck error %v is not a corruption error", err)
				}
				return
			}
			if math.IsNaN(a.Clock) || math.IsInf(a.Clock, 0) {
				t.Fatalf("hello ack with clock %v decoded", a.Clock)
			}
			once := frame(enc.EncodeHelloAck(a))
			a2, err := DecodeHelloAck(mustPayload(t, once))
			if err != nil {
				t.Fatalf("re-encoded hello ack rejected: %v", err)
			}
			if twice := enc.EncodeHelloAck(a2); !bytes.Equal(once, twice) {
				t.Fatalf("hello ack: re-encoding is not canonical:\n%x\n%x", once, twice)
			}
		}
	})
}
