package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	stq "repro"
	"repro/internal/wire"
)

// outcome classifies one completed op for failed_frac.
type outcome uint8

const (
	outcomeOK       outcome = iota
	outcomeRefused          // 429 / 503
	outcomeError            // transport error, other status, undecodable body
	outcomeMismatch         // answered != reference
	numOutcomes
)

// codecStats accumulates the harness-side cost of talking to a served
// deployment: request encode, the HTTP round trip, response decode.
type codecStats struct {
	ops                 int64
	encNs, doNs, decNs  int64
	reqBytes, respBytes int64
}

// caller is one client's connection to a deployment. Implementations
// are not safe for concurrent use: each client goroutine owns one.
type caller interface {
	query(q stq.Query) (answer, outcome, error)
	ingest(events []stq.Event) (outcome, error)
	stats() codecStats
	close()
}

func newCaller(d *deployment) caller {
	if d.srv == nil {
		return &inprocCaller{sys: d.sys}
	}
	switch d.in.spec.surface {
	case surfaceJSON:
		return &jsonCaller{httpCaller: newHTTPCaller(d.base)}
	case surfaceWire:
		return &wireCaller{httpCaller: newHTTPCaller(d.base)}
	}
	return &inprocCaller{sys: d.sys}
}

// inprocCaller calls the System directly (engine_* workloads).
type inprocCaller struct{ sys *stq.System }

func (c *inprocCaller) query(q stq.Query) (answer, outcome, error) {
	r, err := c.sys.Query(q)
	if err != nil {
		return answer{}, outcomeError, err
	}
	if r.Degradation != nil {
		return answer{}, outcomeError, fmt.Errorf("degraded answer on a healthy system")
	}
	return answerOf(r), outcomeOK, nil
}

func (c *inprocCaller) ingest(events []stq.Event) (outcome, error) {
	if err := c.sys.RecordBatch(events); err != nil {
		return outcomeError, err
	}
	return outcomeOK, nil
}

func (c *inprocCaller) stats() codecStats { return codecStats{} }
func (c *inprocCaller) close()            {}

// httpCaller is the transport shared by the JSON and wire callers: one
// persistent connection, a reused response buffer.
type httpCaller struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	st   codecStats
}

func newHTTPCaller(base string) httpCaller {
	return httpCaller{
		base: base,
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		},
	}
}

func (c *httpCaller) stats() codecStats { return c.st }
func (c *httpCaller) close()            { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole response into the reused
// buffer (valid until the next post).
func (c *httpCaller) post(path, contentType string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	c.st.reqBytes += int64(len(body))
	c.st.respBytes += int64(c.buf.Len())
	return resp.StatusCode, c.buf.Bytes(), nil
}

// exchange performs one timed request: encode builds the body, the
// round trip posts it. It returns when the response was read, for
// decoded to time the decode from.
func (c *httpCaller) exchange(path, contentType string, encode func() ([]byte, error)) (status int, resp []byte, read time.Time, err error) {
	t0 := time.Now()
	body, err := encode()
	if err != nil {
		return 0, nil, t0, err
	}
	t1 := time.Now()
	status, resp, err = c.post(path, contentType, body)
	read = time.Now()
	c.st.ops++
	c.st.encNs += int64(t1.Sub(t0))
	c.st.doNs += int64(read.Sub(t1))
	return status, resp, read, err
}

// decoded accounts the decode of a response read at `read`.
func (c *httpCaller) decoded(read time.Time) { c.st.decNs += int64(time.Since(read)) }

// statusOutcome maps a non-200 status to its failure class.
func statusOutcome(op string, status int, body []byte) (outcome, error) {
	if len(body) > 200 {
		body = body[:200]
	}
	err := fmt.Errorf("%s: HTTP %d: %q", op, status, body)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		return outcomeRefused, err
	}
	return outcomeError, err
}

// jsonCaller speaks the default JSON surface.
type jsonCaller struct {
	httpCaller
	events []stq.IngestEvent
}

func (c *jsonCaller) query(q stq.Query) (answer, outcome, error) {
	status, resp, read, err := c.exchange("/v1/query", "application/json", func() ([]byte, error) {
		return json.Marshal(stq.QueryRequest{
			Rect: [4]float64{q.Rect.Min.X, q.Rect.Min.Y, q.Rect.Max.X, q.Rect.Max.Y},
			T1:   q.T1, T2: q.T2, Kind: q.Kind.String(),
		})
	})
	if err != nil {
		return answer{}, outcomeError, err
	}
	if status != http.StatusOK {
		oc, err := statusOutcome("query", status, resp)
		return answer{}, oc, err
	}
	var qr stq.QueryResult
	if err := json.Unmarshal(resp, &qr); err != nil {
		return answer{}, outcomeError, err
	}
	c.decoded(read)
	if qr.Degradation != nil {
		return answer{}, outcomeError, fmt.Errorf("degraded answer on a healthy deployment")
	}
	return answer{
		Count: qr.Count, Missed: qr.Missed, RegionFaces: qr.RegionFaces,
		NodesAccessed: qr.NodesAccessed, Messages: qr.Messages, Hops: qr.Hops,
		TotalHops: qr.TotalHops, EdgesAccessed: qr.EdgesAccessed,
	}, outcomeOK, nil
}

func (c *jsonCaller) ingest(events []stq.Event) (outcome, error) {
	status, resp, read, err := c.exchange("/v1/ingest", "application/json", func() ([]byte, error) {
		c.events = c.events[:0]
		for _, e := range events {
			switch e.Kind {
			case stq.EventMove:
				c.events = append(c.events, stq.IngestEvent{Kind: "move", T: e.T, Road: int(e.Road), From: int(e.From)})
			case stq.EventEnter:
				c.events = append(c.events, stq.IngestEvent{Kind: "enter", T: e.T, Gateway: int(e.Gateway)})
			case stq.EventLeave:
				c.events = append(c.events, stq.IngestEvent{Kind: "leave", T: e.T, Gateway: int(e.Gateway)})
			}
		}
		return json.Marshal(stq.IngestRequest{Events: c.events})
	})
	if err != nil {
		return outcomeError, err
	}
	if status != http.StatusOK {
		return statusOutcome("ingest", status, resp)
	}
	var ir stq.IngestResult
	if err := json.Unmarshal(resp, &ir); err != nil {
		return outcomeError, err
	}
	c.decoded(read)
	if ir.Ingested != len(events) {
		return outcomeError, fmt.Errorf("ingest acknowledged %d of %d events", ir.Ingested, len(events))
	}
	return outcomeOK, nil
}

// wireKinds maps the query op kinds onto the pinned wire bytes.
var wireKinds = [...]byte{opSnapshot: wire.QuerySnapshot, opStatic: wire.QueryStatic, opTransient: wire.QueryTransient}

// wireCaller speaks the binary wire surface.
type wireCaller struct {
	httpCaller
	enc wire.Encoder
}

// wireResponse parses the single response frame and demands want;
// error frames carry the server's refusal.
func wireResponse(op string, status int, resp []byte, want byte) ([]byte, outcome, error) {
	if status != http.StatusOK {
		if kind, payload, _, err := wire.ParseFrame(resp); err == nil && kind == wire.KindError {
			if _, msg, err := wire.DecodeError(payload); err == nil {
				resp = []byte(msg)
			}
		}
		oc, err := statusOutcome(op, status, resp)
		return nil, oc, err
	}
	kind, payload, _, err := wire.ParseFrame(resp)
	if err != nil {
		return nil, outcomeError, err
	}
	if kind != want {
		return nil, outcomeError, fmt.Errorf("%s: response frame kind %d, want %d", op, kind, want)
	}
	return payload, outcomeOK, nil
}

func (c *wireCaller) query(q stq.Query) (answer, outcome, error) {
	status, resp, read, err := c.exchange("/v1/query", wire.ContentType, func() ([]byte, error) {
		return c.enc.EncodeQuery(wire.QueryFrame{
			Rect: [4]float64{q.Rect.Min.X, q.Rect.Min.Y, q.Rect.Max.X, q.Rect.Max.Y},
			T1:   q.T1, T2: q.T2, Kind: wireKinds[opKind(q.Kind)], Bound: wire.BoundLower,
		}), nil
	})
	if err != nil {
		return answer{}, outcomeError, err
	}
	payload, oc, err := wireResponse("query", status, resp, wire.KindResult)
	if err != nil {
		return answer{}, oc, err
	}
	rf, err := wire.DecodeResult(payload)
	if err != nil {
		return answer{}, outcomeError, err
	}
	c.decoded(read)
	if rf.Degraded {
		return answer{}, outcomeError, fmt.Errorf("degraded answer on a healthy deployment")
	}
	return answer{
		Count: rf.Count, Missed: rf.Missed, RegionFaces: rf.RegionFaces,
		NodesAccessed: rf.NodesAccessed, Messages: rf.Messages, Hops: rf.Hops,
		TotalHops: rf.TotalHops, EdgesAccessed: rf.EdgesAccessed,
	}, outcomeOK, nil
}

func (c *wireCaller) ingest(events []stq.Event) (outcome, error) {
	status, resp, read, err := c.exchange("/v1/ingest", wire.ContentType, func() ([]byte, error) {
		return c.enc.EncodeIngest(events, wire.DefaultTick), nil
	})
	if err != nil {
		return outcomeError, err
	}
	payload, oc, err := wireResponse("ingest", status, resp, wire.KindIngestResult)
	if err != nil {
		return oc, err
	}
	n, err := wire.DecodeIngestResult(payload)
	if err != nil {
		return outcomeError, err
	}
	c.decoded(read)
	if n != len(events) {
		return outcomeError, fmt.Errorf("ingest acknowledged %d of %d events", n, len(events))
	}
	return outcomeOK, nil
}
