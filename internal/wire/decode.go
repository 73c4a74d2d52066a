package wire

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/planar"
)

// Decoder reads and decodes wire frames into reusable buffers. The
// zero value is ready; GetDecoder/PutDecoder pool decoders so the
// steady-state decode path performs no heap allocation once the
// buffers have grown to the working sizes.
type Decoder struct {
	hdr    [HeaderSize]byte
	buf    []byte
	events []core.Event
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder takes a pooled decoder.
func GetDecoder() *Decoder { return decoderPool.Get().(*Decoder) }

// PutDecoder returns d to the pool. The caller must no longer hold
// slices returned by ReadFrame or DecodeIngest.
func PutDecoder(d *Decoder) { decoderPool.Put(d) }

// checkHeader validates a frame header and returns (kind, payload
// length). The CRC is verified by the caller once the payload bytes
// are in hand.
func checkHeader(hdr []byte) (kind byte, n int, crc uint32, err error) {
	if binary.LittleEndian.Uint16(hdr[0:2]) != Magic {
		return 0, 0, 0, corruptf("bad magic %#04x", binary.LittleEndian.Uint16(hdr[0:2]))
	}
	if hdr[2] != Version {
		return 0, 0, 0, corruptf("unknown version %d (want %d)", hdr[2], Version)
	}
	kind = hdr[3]
	if kind < KindIngest || kind > KindPartial {
		return 0, 0, 0, corruptf("unknown frame kind %d", kind)
	}
	ln := binary.LittleEndian.Uint32(hdr[4:8])
	if ln > MaxPayload {
		return 0, 0, 0, corruptf("declared payload %d exceeds limit %d", ln, MaxPayload)
	}
	return kind, int(ln), binary.LittleEndian.Uint32(hdr[8:12]), nil
}

func checkCRC(payload []byte, want uint32) error {
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return corruptf("payload CRC mismatch (got %#08x, want %#08x)", got, want)
	}
	return nil
}

// ParseFrame validates one frame at the head of b and returns its kind,
// payload, and the remaining bytes. The payload aliases b.
func ParseFrame(b []byte) (kind byte, payload, rest []byte, err error) {
	if len(b) < HeaderSize {
		return 0, nil, nil, corruptf("truncated header: %d of %d bytes", len(b), HeaderSize)
	}
	kind, n, crc, err := checkHeader(b[:HeaderSize])
	if err != nil {
		return 0, nil, nil, err
	}
	if len(b)-HeaderSize < n {
		return 0, nil, nil, corruptf("truncated payload: %d of %d bytes", len(b)-HeaderSize, n)
	}
	payload = b[HeaderSize : HeaderSize+n]
	if err := checkCRC(payload, crc); err != nil {
		return 0, nil, nil, err
	}
	countFrame(kind, HeaderSize+n, true)
	return kind, payload, b[HeaderSize+n:], nil
}

// ReadFrame reads exactly one frame from r into the decoder's reusable
// buffer and returns its kind and payload. The payload aliases the
// buffer and is valid until the next ReadFrame or PutDecoder. I/O
// errors are returned as-is; structural errors satisfy IsCorrupt.
func (d *Decoder) ReadFrame(r io.Reader) (kind byte, payload []byte, err error) {
	if _, err := io.ReadFull(r, d.hdr[:]); err != nil {
		return 0, nil, err
	}
	kind, n, crc, err := checkHeader(d.hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(r, d.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, corruptf("truncated payload: want %d bytes: %v", n, err)
		}
		return 0, nil, err
	}
	if err := checkCRC(d.buf, crc); err != nil {
		return 0, nil, err
	}
	countFrame(kind, HeaderSize+n, true)
	return kind, d.buf, nil
}

// reader is a tiny cursor over a payload; all methods fail soft with
// ok=false instead of panicking, which is what the fuzz target leans
// on.
type reader struct {
	b   []byte
	pos int
}

func (r *reader) byte() (byte, bool) {
	if r.pos >= len(r.b) {
		return 0, false
	}
	v := r.b[r.pos]
	r.pos++
	return v, true
}

func (r *reader) u64() (uint64, bool) {
	if r.pos+8 > len(r.b) {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v, true
}

func (r *reader) f64() (float64, bool) {
	v, ok := r.u64()
	return math.Float64frombits(v), ok
}

func (r *reader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, false
	}
	r.pos += n
	return v, true
}

func (r *reader) svarint() (int64, bool) {
	u, ok := r.uvarint()
	return int64(u>>1) ^ -int64(u&1), ok
}

func (r *reader) done() bool { return r.pos == len(r.b) }

// DecodeIngest decodes a KindIngest payload into the decoder's
// reusable event buffer. The returned slice is valid until the next
// DecodeIngest or PutDecoder; the serving layer hands it to one
// RecordBatch group commit and releases the decoder only after the
// commit acknowledged.
func (d *Decoder) DecodeIngest(payload []byte) ([]core.Event, error) {
	r := reader{b: payload}
	events, err := d.ingestBody(&r)
	if err != nil {
		return nil, err
	}
	if !r.done() {
		return nil, corruptf("ingest: %d trailing payload bytes", len(payload)-r.pos)
	}
	return events, nil
}

// ingestBody decodes the ingest payload encoding (count, timestamp
// mode, events) from the cursor into the decoder's reusable event
// buffer. Shared between KindIngest frames and the cluster's phase-1
// validate scatter op, which embeds the same encoding.
func (d *Decoder) ingestBody(r *reader) ([]core.Event, error) {
	n64, ok := r.uvarint()
	if !ok {
		return nil, corruptf("ingest: bad event count")
	}
	// Every event costs at least 3 payload bytes (kind + 1-byte delta +
	// 1-byte operand), so a count beyond remaining/3 is structurally
	// impossible — reject before sizing the event buffer to it.
	if n64 > uint64(len(r.b)-r.pos)/3 {
		return nil, corruptf("ingest: declared %d events in %d payload bytes", n64, len(r.b)-r.pos)
	}
	n := int(n64)
	mode, ok := r.byte()
	if !ok || (mode != tsRaw && mode != tsQuantized) {
		return nil, corruptf("ingest: bad timestamp mode")
	}
	var tick float64
	if mode == tsQuantized {
		if tick, ok = r.f64(); !ok || !(tick > 0) || math.IsInf(tick, 0) {
			return nil, corruptf("ingest: bad tick")
		}
	}
	if cap(d.events) < n {
		d.events = make([]core.Event, n)
	}
	d.events = d.events[:n]
	prevTick := int64(0)
	prevRoad := int64(0)
	for i := 0; i < n; i++ {
		k, ok := r.byte()
		if !ok {
			return nil, corruptf("ingest: truncated at event %d", i)
		}
		ev := &d.events[i]
		switch k {
		case evEnter:
			ev.Kind = core.EventEnter
		case evMove:
			ev.Kind = core.EventMove
		case evLeave:
			ev.Kind = core.EventLeave
		default:
			return nil, corruptf("ingest: unknown event kind %d at event %d", k, i)
		}
		if mode == tsQuantized {
			dt, ok := r.svarint()
			if !ok {
				return nil, corruptf("ingest: truncated tick delta at event %d", i)
			}
			prevTick += dt
			ev.T = float64(prevTick) * tick
			if math.IsInf(ev.T, 0) {
				return nil, corruptf("ingest: tick value overflows at event %d", i)
			}
		} else {
			t, ok := r.f64()
			if !ok {
				return nil, corruptf("ingest: truncated timestamp at event %d", i)
			}
			if math.IsNaN(t) || math.IsInf(t, 0) {
				return nil, corruptf("ingest: non-finite timestamp at event %d", i)
			}
			ev.T = t
		}
		if k == evMove {
			dr, ok := r.svarint()
			if !ok {
				return nil, corruptf("ingest: truncated road delta at event %d", i)
			}
			prevRoad += dr
			if prevRoad < 0 || prevRoad > math.MaxInt32 {
				return nil, corruptf("ingest: road id %d out of range at event %d", prevRoad, i)
			}
			from, ok := r.uvarint()
			if !ok || from > math.MaxInt32 {
				return nil, corruptf("ingest: bad from-node at event %d", i)
			}
			ev.Road = planar.EdgeID(prevRoad)
			ev.From = planar.NodeID(from)
			ev.Gateway = 0
		} else {
			gw, ok := r.uvarint()
			if !ok || gw > math.MaxInt32 {
				return nil, corruptf("ingest: bad gateway at event %d", i)
			}
			ev.Gateway = planar.NodeID(gw)
			ev.Road, ev.From = 0, 0
		}
	}
	return d.events, nil
}

// DecodeQuery decodes a KindQuery payload.
func DecodeQuery(payload []byte) (QueryFrame, error) {
	r := reader{b: payload}
	var q QueryFrame
	var ok bool
	if q.Kind, ok = r.byte(); !ok {
		return QueryFrame{}, corruptf("query: truncated kind")
	}
	if q.Bound, ok = r.byte(); !ok {
		return QueryFrame{}, corruptf("query: truncated bound")
	}
	for i := range q.Rect {
		if q.Rect[i], ok = r.f64(); !ok {
			return QueryFrame{}, corruptf("query: truncated rect")
		}
	}
	if q.T1, ok = r.f64(); !ok {
		return QueryFrame{}, corruptf("query: truncated t1")
	}
	if q.T2, ok = r.f64(); !ok {
		return QueryFrame{}, corruptf("query: truncated t2")
	}
	if !r.done() {
		return QueryFrame{}, corruptf("query: %d trailing payload bytes", len(payload)-r.pos)
	}
	return q, nil
}

// DecodeResult decodes a KindResult payload.
func DecodeResult(payload []byte) (ResultFrame, error) {
	r := reader{b: payload}
	var res ResultFrame
	flags, ok := r.byte()
	if !ok || flags&^(resMissed|resDegraded) != 0 {
		return ResultFrame{}, corruptf("result: bad flags")
	}
	res.Missed = flags&resMissed != 0
	res.Degraded = flags&resDegraded != 0
	if res.Count, ok = r.f64(); !ok {
		return ResultFrame{}, corruptf("result: truncated count")
	}
	ints := []*int{
		&res.RegionFaces, &res.NodesAccessed, &res.Messages,
		&res.Hops, &res.TotalHops, &res.EdgesAccessed,
	}
	for _, p := range ints {
		v, ok := r.uvarint()
		if !ok || v > math.MaxInt32 {
			return ResultFrame{}, corruptf("result: bad cost counter")
		}
		*p = int(v)
	}
	if res.Degraded {
		d := &res.Degradation
		if d.Lower, ok = r.f64(); !ok {
			return ResultFrame{}, corruptf("result: truncated degradation lower")
		}
		if d.Upper, ok = r.f64(); !ok {
			return ResultFrame{}, corruptf("result: truncated degradation upper")
		}
		for _, p := range []*int{&d.UnobservedCuts, &d.FailedNodes} {
			v, ok := r.uvarint()
			if !ok || v > math.MaxInt32 {
				return ResultFrame{}, corruptf("result: bad degradation counter")
			}
			*p = int(v)
		}
	}
	if !r.done() {
		return ResultFrame{}, corruptf("result: %d trailing payload bytes", len(payload)-r.pos)
	}
	return res, nil
}

// DecodeIngestResult decodes a KindIngestResult payload.
func DecodeIngestResult(payload []byte) (int, error) {
	r := reader{b: payload}
	v, ok := r.uvarint()
	if !ok || v > math.MaxInt32 || !r.done() {
		return 0, corruptf("ingest result: malformed payload")
	}
	return int(v), nil
}

// DecodeError decodes a KindError payload into (status, message).
func DecodeError(payload []byte) (int, string, error) {
	r := reader{b: payload}
	status, ok := r.uvarint()
	if !ok || status > 999 {
		return 0, "", corruptf("error frame: bad status")
	}
	n, ok := r.uvarint()
	if !ok || n > uint64(len(payload)-r.pos) {
		return 0, "", corruptf("error frame: bad message length")
	}
	msg := string(payload[r.pos : r.pos+int(n)])
	r.pos += int(n)
	if !r.done() {
		return 0, "", corruptf("error frame: trailing payload bytes")
	}
	return int(status), msg, nil
}
