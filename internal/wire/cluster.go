package wire

// Cluster frames: the router ↔ cell transport of the multi-process
// scale-out (internal/cluster, DESIGN.md §16). Four kinds extend the
// protocol:
//
//   - KindHello / KindHelloAck: the handshake. The router pins the
//     manifest hash and the cell index it believes it is talking to;
//     the cell acknowledges with its clock, event count and last
//     applied apply number — the state the router's view of the cell
//     starts from.
//   - KindScatter / KindPartial: one sub-operation of a routed query
//     (a perimeter integral, a perimeter step function, ...) or the
//     phase-1 validation of a cross-cell ingest batch, and its result.
//
// Unlike the client-facing ingest/query codec these paths are not
// required to be zero-alloc: one routed query performs a handful of
// scatter round-trips whose network cost dwarfs a few slice
// allocations.

import (
	"math"

	"repro/internal/core"
	"repro/internal/planar"
)

// Scatter operations. Values are pinned wire bytes, independent of any
// in-memory enum. A retired byte is never reused and both decoders
// refuse it, so a cell answers it 400 and stays in service.
const (
	// OpCountCuts evaluates the boundary integral Σ over the given cuts
	// at time T1 (core.Counter.CountCuts). A cut names a tracked edge of
	// the closed graph: a road, or a junction's world edge.
	OpCountCuts byte = 1
	// Byte 2 is retired: it was OpCountCutsTimes, the integral at a vector
	// of probe times, which only learned stores ever wanted and cells
	// never hold.
	opRetired2 byte = 2
	// OpCutFlow is the fused net flow over (T1, T2]
	// (core.Counter.CutFlow).
	OpCutFlow byte = 3
	// Byte 4 is retired: it was OpEvents, the per-road event-list fetch
	// OpStaticSteps replaced.
	opRetired4 byte = 4
	// OpRoadCrossings is the prefix count of the core.Counter primitive
	// at time T1, on a road or a world edge.
	OpRoadCrossings byte = 5
	// Byte 6 is retired: it was OpWorldCrossings, the prefix count at a
	// gateway, which OpRoadCrossings answers on the gateway's world edge.
	opRetired6 byte = 6
	// Bytes 7 and 8 are retired: they were OpRoadCrossingsIn and
	// OpWorldCrossingsIn, interval counts over (T1, T2] that two prefix
	// counts answer.
	opRetired7 byte = 7
	opRetired8 byte = 8
	// Byte 9 is retired: it was the fetch of a cell's world-junction
	// set. Which junctions carry world edges is the world's to say
	// (roadnet.World.IsGateway), not a cell's.
	opRetired9 byte = 9
	// OpValidate is phase 1 of a cross-cell ingest batch: the cell
	// checks its sub-batch against its store's per-direction order without
	// applying anything. The payload embeds the KindIngest body
	// encoding verbatim.
	OpValidate byte = 10
	// OpStaticSteps answers the occupancy step function of the given
	// cuts over (T1, T2] (core.StepLister): the boundary integral at T1
	// and one entry per instant of net change.
	OpStaticSteps byte = 11
)

// knownOp reports whether op is a live scatter operation of this
// protocol version.
func knownOp(op byte) bool {
	switch op {
	case opRetired2, opRetired4, opRetired6, opRetired7, opRetired8, opRetired9:
		return false
	}
	return op >= OpCountCuts && op <= OpStaticSteps
}

// HelloFrame is a KindHello payload: the router's handshake request.
type HelloFrame struct {
	// ManifestHash pins the cluster layout (cluster.Manifest.LayoutHash);
	// a cell serving a different manifest must refuse the handshake.
	ManifestHash uint64
	// Cell is the partition index the router believes this cell owns.
	Cell int
}

// HelloAckFrame is a KindHelloAck payload: the cell's handshake
// response, carrying the state the router's view of the cell starts from.
type HelloAckFrame struct {
	Cell int
	// Clock is the cell store's high-water timestamp (covers
	// WAL-recovered events after a cell restart). The router's clock of
	// the cell starts from it, and a sub-batch in time order from that
	// clock on is accepted without a validate exchange, so it must be
	// finite: a -Inf clock would make every batch look safe.
	Clock float64
	// NumEvents is the cell store's current event count — the router's
	// sound per-cell contribution bound when the cell later dies.
	NumEvents int
	// Applied is the last router apply number the cell applied (0 when
	// none): the router numbers its next apply above it and drops the
	// parked sub-batches it covers.
	Applied uint64
}

// ScatterFrame is a KindScatter payload. Only the fields of the given
// Op are encoded.
type ScatterFrame struct {
	Op byte
	// Cuts are the perimeter terms owned by the addressed cell
	// (OpCountCuts, OpCutFlow, OpStaticSteps).
	Cuts []core.CutRoad
	// T1 is the probe time of prefix ops; (T1, T2] the interval of
	// OpCutFlow and OpStaticSteps.
	T1, T2 float64
	// Road/Toward address OpRoadCrossings.
	Road   planar.EdgeID
	Toward planar.NodeID
	// Events and Tick carry the OpValidate sub-batch (ingest body
	// encoding).
	Events []core.Event
	Tick   float64
}

// PartialFrame is a KindPartial payload: the cell's result for one
// scatter op. Only the fields of the op are encoded.
type PartialFrame struct {
	Op byte
	// Value is the scalar result of OpCountCuts, OpCutFlow, and the
	// crossing-count ops, and the base of OpStaticSteps.
	Value float64
	// Events are the steps of OpStaticSteps.
	Events []core.SignedEvent
}

// EncodeHello encodes h as one KindHello frame.
func (e *Encoder) EncodeHello(h HelloFrame) []byte {
	e.begin(KindHello)
	e.u64(h.ManifestHash)
	e.uvarint(uint64(h.Cell))
	return e.finish()
}

// DecodeHello decodes a KindHello payload.
func DecodeHello(payload []byte) (HelloFrame, error) {
	r := reader{b: payload}
	var h HelloFrame
	var ok bool
	if h.ManifestHash, ok = r.u64(); !ok {
		return HelloFrame{}, corruptf("hello: truncated manifest hash")
	}
	cell, ok := r.uvarint()
	if !ok || cell > math.MaxInt32 {
		return HelloFrame{}, corruptf("hello: bad cell index")
	}
	h.Cell = int(cell)
	if !r.done() {
		return HelloFrame{}, corruptf("hello: %d trailing payload bytes", len(payload)-r.pos)
	}
	return h, nil
}

// EncodeHelloAck encodes a as one KindHelloAck frame.
func (e *Encoder) EncodeHelloAck(a HelloAckFrame) []byte {
	e.begin(KindHelloAck)
	e.uvarint(uint64(a.Cell))
	e.f64(a.Clock)
	e.uvarint(uint64(a.NumEvents))
	e.uvarint(a.Applied)
	return e.finish()
}

// DecodeHelloAck decodes a KindHelloAck payload.
func DecodeHelloAck(payload []byte) (HelloAckFrame, error) {
	r := reader{b: payload}
	var a HelloAckFrame
	cell, ok := r.uvarint()
	if !ok || cell > math.MaxInt32 {
		return HelloAckFrame{}, corruptf("hello ack: bad cell index")
	}
	a.Cell = int(cell)
	if a.Clock, ok = r.f64(); !ok || math.IsNaN(a.Clock) || math.IsInf(a.Clock, 0) {
		return HelloAckFrame{}, corruptf("hello ack: bad clock")
	}
	n, ok := r.uvarint()
	if !ok || n > math.MaxInt32 {
		return HelloAckFrame{}, corruptf("hello ack: bad event count")
	}
	a.NumEvents = int(n)
	if a.Applied, ok = r.uvarint(); !ok {
		return HelloAckFrame{}, corruptf("hello ack: bad applied number")
	}
	if !r.done() {
		return HelloAckFrame{}, corruptf("hello ack: %d trailing payload bytes", len(payload)-r.pos)
	}
	return a, nil
}

// encodeCuts appends a cut list: varint count, then per cut a zigzag
// edge-id delta (which also carries the jump from the roads to the
// world edges behind them) and the inside end.
func (e *Encoder) encodeCuts(cuts []core.CutRoad) {
	e.uvarint(uint64(len(cuts)))
	prev := int64(0)
	for _, cr := range cuts {
		e.svarint(int64(cr.Road) - prev)
		prev = int64(cr.Road)
		e.uvarint(uint64(cr.Inside))
	}
}

func decodeCuts(r *reader) ([]core.CutRoad, bool) {
	n, ok := r.uvarint()
	if !ok || n > uint64(len(r.b)-r.pos)/2 {
		return nil, false
	}
	cuts := make([]core.CutRoad, 0, n)
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		d, ok := r.svarint()
		if !ok {
			return nil, false
		}
		prev += d
		if prev < 0 || prev > math.MaxInt32 {
			return nil, false
		}
		inside, ok := r.uvarint()
		if !ok || inside > math.MaxInt32 {
			return nil, false
		}
		cuts = append(cuts, core.CutRoad{Road: planar.EdgeID(prev), Inside: planar.NodeID(inside)})
	}
	return cuts, true
}

// EncodeScatter encodes f as one KindScatter frame.
func (e *Encoder) EncodeScatter(f ScatterFrame) []byte {
	e.begin(KindScatter)
	e.buf = append(e.buf, f.Op)
	switch f.Op {
	case OpCountCuts:
		e.encodeCuts(f.Cuts)
		e.f64(f.T1)
	case OpCutFlow, OpStaticSteps:
		e.encodeCuts(f.Cuts)
		e.f64(f.T1)
		e.f64(f.T2)
	case OpRoadCrossings:
		e.uvarint(uint64(f.Road))
		e.uvarint(uint64(f.Toward))
		e.f64(f.T1)
	case OpValidate:
		e.ingestBody(f.Events, f.Tick)
	}
	return e.finish()
}

// DecodeScatter decodes a KindScatter payload. OpValidate events alias
// the decoder's reusable buffer (the DecodeIngest contract).
func (d *Decoder) DecodeScatter(payload []byte) (ScatterFrame, error) {
	r := reader{b: payload}
	var f ScatterFrame
	var ok bool
	if f.Op, ok = r.byte(); !ok || !knownOp(f.Op) {
		return ScatterFrame{}, corruptf("scatter: bad op")
	}
	switch f.Op {
	case OpCountCuts, OpCutFlow, OpStaticSteps:
		if f.Cuts, ok = decodeCuts(&r); !ok {
			return ScatterFrame{}, corruptf("scatter op %d: bad cuts", f.Op)
		}
		switch f.Op {
		case OpCountCuts:
			if f.T1, ok = r.f64(); !ok {
				return ScatterFrame{}, corruptf("scatter: truncated probe time")
			}
		case OpCutFlow, OpStaticSteps:
			if f.T1, ok = r.f64(); !ok {
				return ScatterFrame{}, corruptf("scatter: truncated t1")
			}
			if f.T2, ok = r.f64(); !ok {
				return ScatterFrame{}, corruptf("scatter: truncated t2")
			}
		}
	case OpRoadCrossings:
		road, ok := r.uvarint()
		if !ok || road > math.MaxInt32 {
			return ScatterFrame{}, corruptf("scatter: bad road")
		}
		f.Road = planar.EdgeID(road)
		toward, ok := r.uvarint()
		if !ok || toward > math.MaxInt32 {
			return ScatterFrame{}, corruptf("scatter: bad toward")
		}
		f.Toward = planar.NodeID(toward)
		if f.T1, ok = r.f64(); !ok {
			return ScatterFrame{}, corruptf("scatter: truncated t1")
		}
	case OpValidate:
		var err error
		if f.Events, err = d.ingestBody(&r); err != nil {
			return ScatterFrame{}, err
		}
	}
	if !r.done() {
		return ScatterFrame{}, corruptf("scatter: %d trailing payload bytes", len(payload)-r.pos)
	}
	return f, nil
}

// EncodePartial encodes p as one KindPartial frame.
func (e *Encoder) EncodePartial(p PartialFrame) []byte {
	e.begin(KindPartial)
	e.buf = append(e.buf, p.Op)
	switch p.Op {
	case OpCountCuts, OpCutFlow, OpRoadCrossings:
		e.f64(p.Value)
	case OpStaticSteps:
		e.f64(p.Value)
		e.uvarint(uint64(len(p.Events)))
		for _, ev := range p.Events {
			e.f64(ev.T)
			e.svarint(int64(ev.Delta))
		}
	case OpValidate:
		// Success carries no body; failures travel as error frames.
	}
	return e.finish()
}

// DecodePartial decodes a KindPartial payload.
func DecodePartial(payload []byte) (PartialFrame, error) {
	r := reader{b: payload}
	var p PartialFrame
	var ok bool
	if p.Op, ok = r.byte(); !ok || !knownOp(p.Op) {
		return PartialFrame{}, corruptf("partial: bad op")
	}
	switch p.Op {
	case OpCountCuts, OpCutFlow, OpRoadCrossings:
		if p.Value, ok = r.f64(); !ok {
			return PartialFrame{}, corruptf("partial: truncated value")
		}
	case OpStaticSteps:
		if p.Value, ok = r.f64(); !ok {
			return PartialFrame{}, corruptf("partial: truncated base")
		}
		// Each step costs at least 9 bytes (8-byte T + 1-byte delta).
		n, ok := r.uvarint()
		if !ok || n > uint64(len(r.b)-r.pos)/9 {
			return PartialFrame{}, corruptf("partial: bad step count")
		}
		p.Events = make([]core.SignedEvent, 0, n)
		for i := uint64(0); i < n; i++ {
			t, ok := r.f64()
			if !ok {
				return PartialFrame{}, corruptf("partial: truncated step time")
			}
			delta, ok := r.svarint()
			if !ok || delta < math.MinInt32 || delta > math.MaxInt32 {
				return PartialFrame{}, corruptf("partial: bad step delta")
			}
			p.Events = append(p.Events, core.SignedEvent{T: t, Delta: int(delta)})
		}
	case OpValidate:
		// Empty body.
	}
	if !r.done() {
		return PartialFrame{}, corruptf("partial: %d trailing payload bytes", len(payload)-r.pos)
	}
	return p, nil
}
