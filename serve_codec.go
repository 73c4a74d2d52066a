package stq

// The codec seam of the serving layer (DESIGN.md §13.1): a request on
// /v1/query or /v1/ingest arrives spelled as JSON or as binary wire
// frames (internal/wire, DESIGN.md §15), and leaves spelled the same
// way. Everything between the decode and the encode — admission,
// coalescing, group commit, the engine — is one path that never asks
// which.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/wire"
)

// WireContentType is the media type selecting the compact binary wire
// protocol (internal/wire, DESIGN.md §15) on /v1/query and /v1/ingest.
// Requests carrying it are decoded as wire frames and answered with
// wire frames; everything else stays on the default JSON surface,
// whose bytes are unchanged by the negotiation.
const WireContentType = wire.ContentType

// codec is one spelling of the serving surface. It has exactly two
// values, jsonCodec{} and wireCodec{}; both are comparable, so a codec
// is also the format component of the coalescer's flight key.
type codec interface {
	contentType() string
	// readQuery decodes the body of POST /v1/query.
	readQuery(body io.Reader) (Query, error)
	// readIngest decodes the body of POST /v1/ingest. The events may
	// alias pooled scratch: call free once nothing reads them any more.
	// free is never nil.
	readIngest(body io.Reader) (events []Event, free func(), err error)
	// result, ingested and failure encode the three response bodies.
	// Each returns bytes of its own, because the coalescer hands one
	// leader's body to many followers.
	result(resp *Response) ([]byte, error)
	ingested(n int) []byte
	failure(status int, msg string) []byte
}

type (
	jsonCodec struct{}
	wireCodec struct{}
)

func (jsonCodec) contentType() string { return "application/json" }
func (wireCodec) contentType() string { return wire.ContentType }

// QueryRequest is the JSON body of POST /v1/query.
type QueryRequest struct {
	// Rect is [minX, minY, maxX, maxY].
	Rect [4]float64 `json:"rect"`
	T1   float64    `json:"t1"`
	T2   float64    `json:"t2"`
	// Kind is "snapshot" (default), "static", or "transient".
	Kind string `json:"kind,omitempty"`
	// Bound is "lower" (default) or "upper".
	Bound string `json:"bound,omitempty"`
}

func (r QueryRequest) toQuery() (Query, error) {
	q := Query{Rect: rectOf(r.Rect), T1: r.T1, T2: r.T2}
	var ok bool
	if q.Kind, ok = kindOf(r.Kind); !ok {
		return Query{}, fmt.Errorf("unknown query kind %q", r.Kind)
	}
	if q.Bound, ok = boundOf(r.Bound); !ok {
		return Query{}, fmt.Errorf("unknown bound %q", r.Bound)
	}
	return q, nil
}

// rectOf, kindOf and boundOf are the JSON spellings' one meaning,
// shared by the reference decode above and the scanner (serve_json.go).
func rectOf(r [4]float64) Rect {
	return Rect{Min: Point{X: r[0], Y: r[1]}, Max: Point{X: r[2], Y: r[3]}}
}

func kindOf(s string) (Kind, bool) {
	switch s {
	case "", "snapshot":
		return Snapshot, true
	case "static":
		return Static, true
	case "transient":
		return Transient, true
	}
	return 0, false
}

func boundOf(s string) (Bound, bool) {
	switch s {
	case "", "lower":
		return Lower, true
	case "upper":
		return Upper, true
	}
	return 0, false
}

// queryOfFrame maps the pinned wire enums onto the engine's; unknown
// values are a client error, not a silent default.
func queryOfFrame(f wire.QueryFrame) (Query, error) {
	q := Query{Rect: rectOf(f.Rect), T1: f.T1, T2: f.T2}
	switch f.Kind {
	case wire.QuerySnapshot:
		q.Kind = Snapshot
	case wire.QueryStatic:
		q.Kind = Static
	case wire.QueryTransient:
		q.Kind = Transient
	default:
		return Query{}, fmt.Errorf("unknown query kind %d", f.Kind)
	}
	switch f.Bound {
	case wire.BoundLower:
		q.Bound = Lower
	case wire.BoundUpper:
		q.Bound = Upper
	default:
		return Query{}, fmt.Errorf("unknown bound %d", f.Bound)
	}
	return q, nil
}

// jsonScratch is the pooled working set of one JSON request: the body
// as it came off the socket and, for an ingest, the events scanned out
// of it.
type jsonScratch struct {
	body   bytes.Buffer
	events []Event
	// free returns the scratch to its pool. It is built once per
	// scratch, so handing it to the ingest handler allocates nothing.
	free func()
}

var jsonScratchPool sync.Pool // of *jsonScratch

// maxPooledBody is the body capacity above which a scratch is dropped
// rather than pooled: one 8 MiB request must not pin its buffer.
const maxPooledBody = 64 << 10

// readJSON reads the whole body (bounded by the caller's
// http.MaxBytesReader) into pooled scratch; call free on every path. A
// read that fails keeps the wording it had when json.Decoder did the
// reading, and the *http.MaxBytesError inside still answers 413.
func readJSON(body io.Reader) (*jsonScratch, error) {
	s, _ := jsonScratchPool.Get().(*jsonScratch)
	if s == nil {
		s = new(jsonScratch)
		s.free = func() {
			if s.body.Cap() <= maxPooledBody {
				jsonScratchPool.Put(s)
			}
		}
	}
	s.body.Reset()
	if _, err := s.body.ReadFrom(body); err != nil {
		return s, fmt.Errorf("malformed JSON body: %w", err)
	}
	return s, nil
}

// readQuery and readIngest take the request's bytes through the
// canonical-dialect scanner (serve_json.go), and through encoding/json
// when the scanner gives up. The choice is made from the bytes alone;
// the scanner never refuses a request, so every refusal is worded by
// the reference path.
func (jsonCodec) readQuery(body io.Reader) (Query, error) {
	s, err := readJSON(body)
	defer s.free()
	if err != nil {
		return Query{}, err
	}
	if q, ok := scanQuery(s.body.Bytes()); ok {
		return q, nil
	}
	return decodeQueryJSON(s.body.Bytes())
}

// queryBody is QueryRequest as the reference path decodes it: Rect
// shadows the embedded [4]float64, which would drop a fifth number and
// zero-fill a missing fourth in silence.
type queryBody struct {
	QueryRequest
	Rect []float64 `json:"rect"`
}

func decodeQueryJSON(b []byte) (Query, error) {
	var req queryBody
	if err := decodeJSON(b, &req); err != nil {
		return Query{}, err
	}
	if len(req.Rect) != 4 {
		return Query{}, fmt.Errorf("rect has %d numbers, want 4: [minX, minY, maxX, maxY]", len(req.Rect))
	}
	copy(req.QueryRequest.Rect[:], req.Rect)
	return req.toQuery()
}

func (wireCodec) readQuery(body io.Reader) (Query, error) {
	d := wire.GetDecoder()
	defer wire.PutDecoder(d)
	payload, err := readFrame(d, body, wire.KindQuery, "query")
	if err != nil {
		return Query{}, err
	}
	qf, err := wire.DecodeQuery(payload)
	if err != nil {
		return Query{}, err
	}
	return queryOfFrame(qf)
}

// readFrame reads the one frame of the wanted kind a wire request body
// carries. The payload aliases d.
func readFrame(d *wire.Decoder, body io.Reader, want byte, name string) ([]byte, error) {
	srvWireRequests.Inc()
	kind, payload, err := d.ReadFrame(body)
	if err != nil {
		return nil, err
	}
	if kind != want {
		return nil, fmt.Errorf("wire: expected %s frame, got kind %d", name, kind)
	}
	return payload, nil
}

// IngestEvent is one event of POST /v1/ingest.
type IngestEvent struct {
	// Kind is "move", "enter", or "leave".
	Kind string  `json:"kind"`
	T    float64 `json:"t"`
	// Road and From describe a move (the object traverses Road starting
	// at junction From).
	Road int `json:"road,omitempty"`
	From int `json:"from,omitempty"`
	// Gateway is the gateway junction of an enter/leave.
	Gateway int `json:"gateway,omitempty"`
}

func (e IngestEvent) toEvent() (Event, error) {
	if ev, ok := eventOf(e.Kind, e.T, e.Road, e.From, e.Gateway); ok {
		return ev, nil
	}
	return Event{}, fmt.Errorf("unknown event kind %q", e.Kind)
}

// eventOf is the meaning of one JSON event, shared like kindOf: the
// kind decides which ids count.
func eventOf(kind string, t float64, road, from, gateway int) (Event, bool) {
	switch kind {
	case "move":
		return MoveEvent(EdgeID(road), NodeID(from), t), true
	case "enter":
		return EnterEvent(NodeID(gateway), t), true
	case "leave":
		return LeaveEvent(NodeID(gateway), t), true
	}
	return Event{}, false
}

// IngestRequest is the JSON body of POST /v1/ingest.
type IngestRequest struct {
	Events []IngestEvent `json:"events"`
}

// readIngest scans the events straight into the scratch's pooled slice
// — no []IngestEvent in between — and free returns the scratch.
func (jsonCodec) readIngest(body io.Reader) ([]Event, func(), error) {
	s, err := readJSON(body)
	if err != nil {
		return nil, s.free, err
	}
	events, ok := scanIngest(s.body.Bytes(), s.events[:0])
	if !ok {
		events, err = decodeIngestJSON(s.body.Bytes(), events[:0])
	}
	if err == nil {
		s.events = events // keep what the appends grew
	}
	return events, s.free, err
}

// ingestBody is IngestRequest as the reference path decodes it: T
// shadows the embedded float64 so that an event with no t is told from
// one at time 0 instead of being stamped with it.
type ingestBody struct {
	Events []ingestEventBody `json:"events"`
}

type ingestEventBody struct {
	IngestEvent
	T *float64 `json:"t"`
}

func decodeIngestJSON(b []byte, dst []Event) ([]Event, error) {
	var req ingestBody
	if err := decodeJSON(b, &req); err != nil {
		return nil, err
	}
	for i, we := range req.Events {
		if we.T == nil {
			return nil, fmt.Errorf("event %d: missing t", i)
		}
		we.IngestEvent.T = *we.T
		ev, err := we.toEvent()
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		dst = append(dst, ev)
	}
	return dst, nil
}

// readIngest decodes the frame straight into the decoder's pooled event
// scratch — no JSON-shaped intermediate slice, one copy from socket to
// RecordBatch — and free returns the decoder to its pool.
func (wireCodec) readIngest(body io.Reader) ([]Event, func(), error) {
	d := wire.GetDecoder()
	free := func() { wire.PutDecoder(d) }
	payload, err := readFrame(d, body, wire.KindIngest, "ingest")
	if err != nil {
		return nil, free, err
	}
	events, err := d.DecodeIngest(payload)
	return events, free, err
}

// QueryResult is the JSON body of a successful /v1/query response.
type QueryResult struct {
	Count         float64      `json:"count"`
	Missed        bool         `json:"missed"`
	RegionFaces   int          `json:"region_faces"`
	NodesAccessed int          `json:"nodes_accessed"`
	Messages      int          `json:"messages"`
	Hops          int          `json:"hops"`
	TotalHops     int          `json:"total_hops"`
	EdgesAccessed int          `json:"edges_accessed"`
	Degradation   *Degradation `json:"degradation,omitempty"`
}

func (jsonCodec) result(resp *Response) ([]byte, error) {
	return json.Marshal(QueryResult{
		Count:         resp.Count,
		Missed:        resp.Missed,
		RegionFaces:   resp.RegionFaces,
		NodesAccessed: resp.NodesAccessed,
		Messages:      resp.Messages,
		Hops:          resp.Hops,
		TotalHops:     resp.TotalHops,
		EdgesAccessed: resp.EdgesAccessed,
		Degradation:   resp.Degradation,
	})
}

func (wireCodec) result(resp *Response) ([]byte, error) {
	f := wire.ResultFrame{
		Count:         resp.Count,
		Missed:        resp.Missed,
		RegionFaces:   resp.RegionFaces,
		NodesAccessed: resp.NodesAccessed,
		Messages:      resp.Messages,
		Hops:          resp.Hops,
		TotalHops:     resp.TotalHops,
		EdgesAccessed: resp.EdgesAccessed,
	}
	if d := resp.Degradation; d != nil {
		f.Degraded = true
		f.Degradation = wire.DegradationFrame{
			UnobservedCuts: d.UnobservedCuts,
			Lower:          d.Lower,
			Upper:          d.Upper,
			FailedNodes:    d.FailedNodes,
		}
	}
	return wire.MarshalResult(f), nil
}

// IngestResult is the JSON body of a successful /v1/ingest response.
type IngestResult struct {
	Ingested int `json:"ingested"`
}

func (jsonCodec) ingested(n int) []byte {
	b, _ := json.Marshal(IngestResult{Ingested: n}) // a struct of one int cannot fail to marshal
	return b
}

func (wireCodec) ingested(n int) []byte { return wire.MarshalIngestResult(n) }

// failure on the wire is an error frame: a binary client must never
// have to parse JSON to learn it was refused.
func (wireCodec) failure(status int, msg string) []byte { return wire.MarshalError(status, msg) }

func (jsonCodec) failure(_ int, msg string) []byte { return errorBody(errors.New(msg)) }

func decodeJSON(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed JSON body: %w", err)
	}
	// Require exactly one JSON value: a body like `{...}garbage` or
	// `{...}{...}` is a malformed request, and silently dropping the
	// trailing bytes would mask client bugs (e.g. double-encoded
	// batches) as successful ingests.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("malformed JSON body: trailing data after JSON value")
	}
	return nil
}

// jsonMarshal is a seam so tests can force the error-body encoder to
// fail; production code always points it at json.Marshal.
var jsonMarshal = json.Marshal

// staticErrorBody is the pre-encoded fallback error payload. It exists
// because errorBody cannot report failure by failing: if encoding the
// real error errors out, the client must still receive well-formed
// JSON, not an empty body with an error status.
var staticErrorBody = []byte(`{"error":"internal error"}`)

func errorBody(err error) []byte {
	b, merr := jsonMarshal(map[string]string{"error": err.Error()})
	if merr != nil {
		return staticErrorBody
	}
	return b
}
