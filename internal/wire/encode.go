package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"repro/internal/core"
)

// Encoder builds wire frames into a reusable buffer. The zero value is
// ready to use; GetEncoder/PutEncoder pool encoders so the steady-state
// encode path performs no heap allocation once the buffer has grown to
// the working frame size.
//
// Each Encode* call resets the buffer and encodes exactly one frame;
// the returned slice aliases the encoder's buffer and is valid until
// the next Encode* call or PutEncoder.
type Encoder struct {
	buf   []byte
	ticks []int64
}

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder takes a pooled encoder.
func GetEncoder() *Encoder { return encoderPool.Get().(*Encoder) }

// PutEncoder returns e to the pool. The caller must no longer hold
// slices returned by the encoder.
func PutEncoder(e *Encoder) { encoderPool.Put(e) }

// begin resets the buffer and lays down a frame header placeholder for
// the given kind; finish backfills length and CRC.
func (e *Encoder) begin(kind byte) {
	e.buf = e.buf[:0]
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = kind
	e.buf = append(e.buf, hdr[:]...)
}

func (e *Encoder) finish() []byte {
	payload := e.buf[HeaderSize:]
	binary.LittleEndian.PutUint32(e.buf[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.buf[8:12], crc32.Checksum(payload, castagnoli))
	countFrame(e.buf[3], len(e.buf), false)
	return e.buf
}

func (e *Encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *Encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *Encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// svarint zigzag-encodes v, the standard signed-to-unsigned fold that
// keeps small deltas of either sign short.
func (e *Encoder) svarint(v int64) {
	e.uvarint(uint64(v<<1) ^ uint64(v>>63))
}

// EncodeIngest encodes events as one KindIngest frame. Timestamps are
// tick-quantized and delta-encoded when every event reconstructs
// exactly from the tick grid (float64(tick_i)*tick == T, the
// internal/core/segment discipline); otherwise they are carried as raw
// 8-byte float bits. Road IDs of move events are delta-encoded against
// the previous move's road. tick ≤ 0 forces the raw path.
func (e *Encoder) EncodeIngest(events []core.Event, tick float64) []byte {
	e.begin(KindIngest)
	e.ingestBody(events, tick)
	return e.finish()
}

// AppendIngestPayload appends the ingest payload of events — the bytes
// EncodeIngest puts behind the frame header — to dst and returns the
// extended slice. It writes no header and moves no wire counter: it is
// for a caller that stores a batch instead of sending it (the
// write-ahead log's batch record, internal/wal), and DecodeIngest reads
// the bytes back. Unlike EncodeIngest it refuses an event of unknown
// kind rather than encode one the decoder rejects.
func (e *Encoder) AppendIngestPayload(dst []byte, events []core.Event, tick float64) ([]byte, error) {
	buf := e.buf
	e.buf = dst
	bad := e.ingestBody(events, tick)
	dst, e.buf = e.buf, buf
	if bad >= 0 {
		return nil, fmt.Errorf("wire: event %d has unknown kind %d", bad, events[bad].Kind)
	}
	return dst, nil
}

// ingestBody appends the ingest payload encoding (count, timestamp
// mode, events) to the current frame and returns the index of the first
// event of unknown kind, or -1. Shared between KindIngest frames, the
// cluster's phase-1 validate scatter op and the WAL's batch record,
// which embed the exact same encoding so one routine decodes all three.
func (e *Encoder) ingestBody(events []core.Event, tick float64) (bad int) {
	bad = -1
	e.uvarint(uint64(len(events)))
	mode := tsRaw
	if tick > 0 && e.quantize(events, tick) {
		mode = tsQuantized
	}
	e.buf = append(e.buf, mode)
	if mode == tsQuantized {
		e.f64(tick)
	}
	prevTick := int64(0)
	prevRoad := int64(0)
	for i, ev := range events {
		switch ev.Kind {
		case core.EventEnter:
			e.buf = append(e.buf, evEnter)
		case core.EventMove:
			e.buf = append(e.buf, evMove)
		case core.EventLeave:
			e.buf = append(e.buf, evLeave)
		default:
			// Unknown kinds cannot round-trip; encode as a frame the
			// decoder is guaranteed to reject rather than silently drop
			// the event.
			e.buf = append(e.buf, 0xFF)
			if bad < 0 {
				bad = i
			}
		}
		if mode == tsQuantized {
			e.svarint(e.ticks[i] - prevTick)
			prevTick = e.ticks[i]
		} else {
			e.f64(ev.T)
		}
		if ev.Kind == core.EventMove {
			e.svarint(int64(ev.Road) - prevRoad)
			prevRoad = int64(ev.Road)
			e.uvarint(uint64(ev.From))
		} else {
			e.uvarint(uint64(ev.Gateway))
		}
	}
	return bad
}

// quantize fills e.ticks with the tick values of every event timestamp
// and reports whether all of them reconstruct exactly — bit for bit, so
// a -0 (which == +0) keeps the raw path and its sign.
func (e *Encoder) quantize(events []core.Event, tick float64) bool {
	if cap(e.ticks) < len(events) {
		e.ticks = make([]int64, len(events))
	}
	e.ticks = e.ticks[:len(events)]
	for i, ev := range events {
		q := math.Round(ev.T / tick)
		if math.IsNaN(q) || math.Abs(q) >= 1<<62 {
			return false
		}
		tv := int64(q)
		if math.Float64bits(float64(tv)*tick) != math.Float64bits(ev.T) {
			return false
		}
		e.ticks[i] = tv
	}
	return true
}

// EncodeQuery encodes q as one KindQuery frame.
func (e *Encoder) EncodeQuery(q QueryFrame) []byte {
	e.begin(KindQuery)
	e.buf = append(e.buf, q.Kind, q.Bound)
	for _, v := range q.Rect {
		e.f64(v)
	}
	e.f64(q.T1)
	e.f64(q.T2)
	return e.finish()
}

// Result-frame flag bits.
const (
	resMissed   byte = 1 << 0
	resDegraded byte = 1 << 1
)

// EncodeResult encodes r as one KindResult frame.
func (e *Encoder) EncodeResult(r ResultFrame) []byte {
	e.begin(KindResult)
	var flags byte
	if r.Missed {
		flags |= resMissed
	}
	if r.Degraded {
		flags |= resDegraded
	}
	e.buf = append(e.buf, flags)
	e.f64(r.Count)
	e.uvarint(uint64(r.RegionFaces))
	e.uvarint(uint64(r.NodesAccessed))
	e.uvarint(uint64(r.Messages))
	e.uvarint(uint64(r.Hops))
	e.uvarint(uint64(r.TotalHops))
	e.uvarint(uint64(r.EdgesAccessed))
	if r.Degraded {
		d := r.Degradation
		e.f64(d.Lower)
		e.f64(d.Upper)
		e.uvarint(uint64(d.UnobservedCuts))
		e.uvarint(uint64(d.FailedNodes))
	}
	return e.finish()
}

// EncodeIngestResult encodes a successful ingest acknowledgement.
func (e *Encoder) EncodeIngestResult(ingested int) []byte {
	e.begin(KindIngestResult)
	e.uvarint(uint64(ingested))
	return e.finish()
}

// EncodeError encodes an error frame carrying the HTTP status and
// message.
func (e *Encoder) EncodeError(status int, msg string) []byte {
	e.begin(KindError)
	e.uvarint(uint64(status))
	e.uvarint(uint64(len(msg)))
	e.buf = append(e.buf, msg...)
	return e.finish()
}

// Marshal* are the convenience one-shot forms: they allocate a fresh
// frame the caller may retain indefinitely (the serving layer's
// coalescer shares response bodies across requests, which a pooled
// buffer must never back).

// MarshalQuery allocates one KindQuery frame.
func MarshalQuery(q QueryFrame) []byte { var e Encoder; return e.EncodeQuery(q) }

// MarshalResult allocates one KindResult frame.
func MarshalResult(r ResultFrame) []byte { var e Encoder; return e.EncodeResult(r) }

// MarshalIngest allocates one KindIngest frame.
func MarshalIngest(events []core.Event, tick float64) []byte {
	var e Encoder
	return e.EncodeIngest(events, tick)
}

// MarshalIngestResult allocates one KindIngestResult frame.
func MarshalIngestResult(n int) []byte { var e Encoder; return e.EncodeIngestResult(n) }

// MarshalError allocates one KindError frame.
func MarshalError(status int, msg string) []byte { var e Encoder; return e.EncodeError(status, msg) }
