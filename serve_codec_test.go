package stq

// The codec seam (DESIGN.md §13.1): every refusal the serving surface
// can give, asked once per codec value. Whatever stops a request, the
// answer carries the status the one statusOf table assigns, the content
// type of the request's own codec, and a body that codec's client
// decoder accepts.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/wire"
)

// surface is one codec as a client sees it: how to spell requests, and
// how to read a refusal.
type surface struct {
	codec     codec
	query     func(rect Rect, t1 float64) []byte
	ingest    func(events ...Event) []byte
	malformed []byte
	// oversized is a body just past maxBodyBytes that is well formed up
	// to the bound, so only the bound can refuse it.
	oversized []byte
	// message decodes a refusal body and returns its text.
	message func(t *testing.T, status int, body []byte) string
}

// surfaces builds both codec values' client sides (the oversized
// bodies are 8 MiB each, so not at package init).
func surfaces() map[string]surface {
	return map[string]surface{"json": jsonSurface(), "wire": wireSurface()}
}

func jsonSurface() surface {
	return surface{
		codec: jsonCodec{},
		query: func(rect Rect, t1 float64) []byte {
			b, _ := json.Marshal(QueryRequest{Rect: [4]float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y}, T1: t1})
			return b
		},
		ingest: func(events ...Event) []byte {
			req := IngestRequest{Events: make([]IngestEvent, len(events))}
			for i, ev := range events {
				req.Events[i] = IngestEvent{Kind: "move", T: ev.T, Road: int(ev.Road), From: int(ev.From)}
			}
			b, _ := json.Marshal(req)
			return b
		},
		malformed: []byte(`{"rect":[0,0,`),
		oversized: []byte(`{"pad":"` + strings.Repeat("a", maxBodyBytes) + `"}`),
		message: func(t *testing.T, _ int, body []byte) string {
			t.Helper()
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Fatalf("refusal body %q is not a JSON error payload (%v)", body, err)
			}
			return e["error"]
		},
	}
}

func wireSurface() surface {
	return surface{
		codec: wireCodec{},
		query: func(rect Rect, t1 float64) []byte {
			return wireQueryFrame(rect, t1, 0, wire.QuerySnapshot, wire.BoundLower)
		},
		ingest:    func(events ...Event) []byte { return wire.MarshalIngest(events, wire.DefaultTick) },
		malformed: []byte("not a frame"),
		oversized: func() []byte {
			b := make([]byte, wire.HeaderSize+maxBodyBytes)
			binary.LittleEndian.PutUint16(b[0:2], wire.Magic)
			b[2], b[3] = wire.Version, wire.KindIngest
			binary.LittleEndian.PutUint32(b[4:8], maxBodyBytes)
			return b
		}(),
		message: func(t *testing.T, status int, body []byte) string {
			t.Helper()
			st, msg, err := wire.DecodeError(parseKind(t, body, wire.KindError))
			if err != nil || st != status || msg == "" {
				t.Fatalf("error frame status=%d msg=%q err=%v, want status %d", st, msg, err, status)
			}
			return msg
		},
	}
}

// send drives one request through the handler without a socket, so an
// oversized body cannot race a connection reset.
func (sf surface) send(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", sf.codec.contentType())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// refused asserts the three things every refusal owes its client.
func (sf surface) refused(t *testing.T, what string, rec *httptest.ResponseRecorder, status int, contains string) {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("%s: HTTP %d (%q), want %d", what, rec.Code, rec.Body.Bytes(), status)
	}
	if ct := rec.Header().Get("Content-Type"); ct != sf.codec.contentType() {
		t.Errorf("%s: content type %q, want %q", what, ct, sf.codec.contentType())
	}
	if msg := sf.message(t, status, rec.Body.Bytes()); !strings.Contains(msg, contains) {
		t.Errorf("%s: message %q does not mention %q", what, msg, contains)
	}
}

// heldServer is a test server whose engine blocks until release: the
// first query holds an admission slot for as long as the test needs.
func heldServer(t *testing.T, cfg ServerConfig) (srv *Server, execs *atomic.Int32, release func()) {
	t.Helper()
	srv, _, _ = newTestServer(t, cfg)
	gate := make(chan struct{})
	execs = new(atomic.Int32)
	srv.queryFn = func(q Query) (*Response, error) {
		execs.Add(1)
		<-gate
		return srv.System().Query(q)
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // before the server's own cleanup, which waits for held requests
	return srv, execs, release
}

func TestServeRefusalsInEveryCodec(t *testing.T) {
	endpoints := []string{"/v1/query", "/v1/ingest"}
	cases := map[string]func(t *testing.T, sf surface){
		"malformed body 400": func(t *testing.T, sf surface) {
			srv, _, _ := newTestServer(t, ServerConfig{})
			for _, path := range endpoints {
				sf.refused(t, path, sf.send(srv, http.MethodPost, path, sf.malformed), http.StatusBadRequest, "")
			}
			if n := srv.Stats().BadRequests; n != 2 {
				t.Errorf("BadRequests = %d, want 2", n)
			}
		},
		"wrong method 405": func(t *testing.T, sf surface) {
			srv, _, _ := newTestServer(t, ServerConfig{})
			for _, path := range endpoints {
				sf.refused(t, path, sf.send(srv, http.MethodGet, path, nil), http.StatusMethodNotAllowed, "POST")
			}
		},
		"oversized body 413": func(t *testing.T, sf surface) {
			srv, _, _ := newTestServer(t, ServerConfig{})
			for _, path := range endpoints {
				sf.refused(t, path, sf.send(srv, http.MethodPost, path, sf.oversized), http.StatusRequestEntityTooLarge, "too large")
			}
			if n := srv.Stats().BadRequests; n != 2 {
				t.Errorf("BadRequests = %d, want 2: an oversized body is the client's doing", n)
			}
		},
		"waiting room full 429": func(t *testing.T, sf surface) {
			srv, execs, release := heldServer(t, ServerConfig{MaxInflight: 1, MaxQueued: 1})
			sys := srv.System()
			// Distinct rects so the requests cannot coalesce.
			post := func(i int) *httptest.ResponseRecorder {
				return sf.send(srv, http.MethodPost, "/v1/query", sf.query(centered(sys, 0.3+0.05*float64(i)), 100))
			}
			blocked := make(chan int, 2)
			go func() { blocked <- post(0).Code }() // occupies the single inflight slot
			waitFor(t, func() bool { return execs.Load() == 1 }, "first request to execute")
			go func() { blocked <- post(1).Code }() // fills the waiting room
			waitFor(t, func() bool { return srv.waiters.Load() == 1 }, "second request to queue")

			rec := post(2) // waiting room full → immediate 429
			sf.refused(t, "third request", rec, http.StatusTooManyRequests, "capacity")
			if rec.Header().Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			release()
			for i := 0; i < 2; i++ {
				if s := <-blocked; s != http.StatusOK {
					t.Errorf("blocked request %d finished with HTTP %d, want 200", i, s)
				}
			}
			if n := srv.Stats().Rejected; n != 1 {
				t.Errorf("Rejected = %d, want 1", n)
			}
		},
		"draining 503": func(t *testing.T, sf surface) {
			srv, _, _ := newTestServer(t, ServerConfig{})
			if err := srv.Drain(); err != nil {
				t.Fatal(err)
			}
			for _, path := range endpoints {
				sf.refused(t, path, sf.send(srv, http.MethodPost, path, sf.malformed), http.StatusServiceUnavailable, "draining")
			}
		},
		"queued then drained 503": func(t *testing.T, sf surface) {
			srv, execs, release := heldServer(t, ServerConfig{MaxInflight: 1, MaxQueued: 4})
			body := sf.query(centered(srv.System(), 0.4), 100)
			running, queued := make(chan int, 1), make(chan *httptest.ResponseRecorder, 1)
			go func() { running <- sf.send(srv, http.MethodPost, "/v1/query", body).Code }()
			waitFor(t, func() bool { return execs.Load() == 1 }, "first request to hold the only slot")
			go func() { queued <- sf.send(srv, http.MethodPost, "/v1/query", body) }()
			waitFor(t, func() bool { return srv.waiters.Load() == 1 }, "second request to enter the waiting room")
			if err := srv.Drain(); err != nil {
				t.Fatal(err)
			}
			sf.refused(t, "queued request at Drain", <-queued, http.StatusServiceUnavailable, "draining")
			release()
			if s := <-running; s != http.StatusOK {
				t.Errorf("admitted request: HTTP %d, want 200", s)
			}
			if n := srv.Stats().Rejected; n != 0 {
				t.Errorf("Rejected = %d after a drain with no capacity refusal, want 0", n)
			}
		},
		"ErrNotDurable 500": func(t *testing.T, sf surface) {
			w := durableTestWorld(t)
			sys, err := OpenDurable(w, Durability{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(sys, ServerConfig{})
			t.Cleanup(func() { _ = srv.Drain() }) // the final checkpoint fails on the closed log
			// The log fails every append under a system that still takes
			// ingestion.
			if err := sys.log.Close(); err != nil {
				t.Fatal(err)
			}
			rec := sf.send(srv, http.MethodPost, "/v1/ingest", sf.ingest(MoveEvent(0, w.Star.Edge(0).U, 10)))
			sf.refused(t, "ingest over a closed log", rec, http.StatusInternalServerError, "not logged")
			if n := srv.Stats().BadRequests; n != 0 {
				t.Errorf("BadRequests = %d for a server-side failure, want 0", n)
			}
			if n := sys.NumEvents(); n != 0 {
				t.Errorf("a batch the log refused applied %d events, want 0", n)
			}
		},
		"ErrClusterUnavailable 503": func(t *testing.T, sf surface) {
			tc := bootTestCluster(t, 2, false)
			srv := NewServer(tc.sys, ServerConfig{})
			t.Cleanup(func() { _ = srv.Drain() })
			tc.killCell(1)
			rec := sf.send(srv, http.MethodPost, "/v1/ingest", sf.ingest(deadCellEvent(t, tc, 1, 100)))
			sf.refused(t, "ingest owned by a dead cell", rec, http.StatusServiceUnavailable, "unavailable")
		},
		"committed and kept for a cell 503": func(t *testing.T, sf surface) {
			tc := bootTestCluster(t, 2, false)
			srv := NewServer(tc.sys, ServerConfig{})
			t.Cleanup(func() { _ = srv.Drain() })
			tc.cut[1].Store(cutBefore)
			rec := sf.send(srv, http.MethodPost, "/v1/ingest", sf.ingest(straddling(t, tc, 0)...))
			tc.cut[1].Store(0)
			sf.refused(t, "batch cell 1 did not confirm", rec, http.StatusServiceUnavailable, "committed, completes when the cell rejoins, and must not be sent again")
			tc.rset.Probe()
			for p, cell := range tc.cells {
				if n := cell.NumEvents(); n != 1 {
					t.Errorf("cell %d holds %d events after it rejoined, want 1", p, n)
				}
			}
		},
		"privacy budget 429": func(t *testing.T, sf surface) {
			srv, _, _ := newTestServer(t, ServerConfig{})
			srv.queryFn = func(Query) (*Response, error) {
				return nil, fmt.Errorf("budget: %w", ErrPrivacyBudgetExhausted)
			}
			rec := sf.send(srv, http.MethodPost, "/v1/query", sf.query(centered(srv.System(), 0.5), 100))
			sf.refused(t, "budget-exhausted query", rec, http.StatusTooManyRequests, "budget exhausted")
			if rec.Header().Get("Retry-After") != "" || srv.Stats().Rejected != 0 {
				t.Error("an exhausted ε budget was reported as an admission refusal")
			}
		},
	}
	for sname, sf := range surfaces() {
		for cname, run := range cases {
			t.Run(cname+"/"+sname, func(t *testing.T) { run(t, sf) })
		}
	}
}

// TestClusterCell413KeepsCellAlive: /v1/cell answers an oversized frame
// 413 in a wire error frame, and the router reads that as what it is —
// a definitive refusal of one request — not as a dead cell.
func TestClusterCell413KeepsCellAlive(t *testing.T) {
	tc := bootTestCluster(t, 2, false)
	wf := wireSurface()
	wf.refused(t, "/v1/cell", wf.send(tc.srvs[0], http.MethodPost, "/v1/cell", wf.oversized), http.StatusRequestEntityTooLarge, "too large")

	// Over the network: a cross-cell batch sends each cell its sub-batch
	// in an OpValidate scatter first. Size cell 0's share to overshoot
	// the bound by less than the server drains after answering, so the
	// connection survives and the client reads the 413 rather than a
	// reset. Off-grid timestamps keep the encoding at a flat raw size.
	road := roadOwnedBy(t, tc.lay, 0)
	from := tc.world.Star.Edge(road).U
	at := func(i int) Event { return MoveEvent(road, from, 100+float64(i)*0.123456789) }
	probe := make([]Event, 1000)
	for i := range probe {
		probe[i] = at(i)
	}
	perEvent := float64(len(wire.MarshalIngest(probe, wire.DefaultTick))-wire.HeaderSize) / float64(len(probe))
	batch := make([]Event, int((maxBodyBytes+64<<10)/perEvent))
	for i := range batch {
		batch[i] = at(i)
	}
	if n := len(wire.MarshalIngest(batch, wire.DefaultTick)); n <= maxBodyBytes || n > maxBodyBytes+200<<10 {
		t.Fatalf("fixture frame is %d bytes, want just past %d", n, maxBodyBytes)
	}
	other := roadOwnedBy(t, tc.lay, 1)
	batch = append(batch, MoveEvent(other, tc.world.Star.Edge(other).U, 100))

	err := tc.sys.RecordBatch(batch)
	if got := cluster.Status(err); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized cross-cell batch: err %v (status %d), want a definitive 413", err, got)
	}
	if errors.Is(err, ErrClusterUnavailable) {
		t.Fatalf("413 surfaced as cluster unavailability: %v", err)
	}
	for p := range tc.cells {
		if !tc.rset.CellAlive(p) {
			t.Errorf("cell %d marked dead by a 413", p)
		}
		if n := tc.cells[p].NumEvents(); n != 0 {
			t.Errorf("cell %d applied %d events of a refused batch", p, n)
		}
	}
}

// TestServeResponsesCarryTheirLength: a body past net/http's 2 KiB
// sniff buffer still leaves with its Content-Length, in either codec —
// not chunked, which costs the writer several writes and the router's
// cell client a chunk parser for every long static partial.
func TestServeResponsesCarryTheirLength(t *testing.T) {
	tc := bootTestCluster(t, 2, false)
	road := roadOwnedBy(t, tc.lay, 0)
	edge := tc.world.Star.Edge(road)
	crossings := make([]Event, 300)
	for i := range crossings {
		crossings[i] = MoveEvent(road, edge.V, 10+float64(i))
	}
	if err := tc.cells[0].RecordBatch(crossings); err != nil {
		t.Fatal(err)
	}
	var enc wire.Encoder
	for _, c := range []struct {
		name, path, contentType string
		body                    []byte
		status                  int
	}{
		{"wire static partial", "/v1/cell", wire.ContentType, enc.EncodeScatter(wire.ScatterFrame{
			Op: wire.OpStaticSteps, Cuts: []core.CutRoad{{Road: road, Inside: edge.U}}, T1: 0, T2: 1000}), http.StatusOK},
		{"JSON refusal", "/v1/query", "application/json",
			[]byte(`{"rect":[0,0,1,1],"t1":1,"kind":"` + strings.Repeat("x", 3000) + `"}`), http.StatusBadRequest},
	} {
		resp, err := http.Post("http://"+tc.addrs[0]+c.path, c.contentType, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status || len(body) <= 2048 {
			t.Fatalf("%s: status %d with %d bytes, want %d and a body past 2 KiB", c.name, resp.StatusCode, len(body), c.status)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: %d-byte body announced as Content-Length %d, Transfer-Encoding %v", c.name, len(body), resp.ContentLength, resp.TransferEncoding)
		}
	}
}
