package stq

// Binary wire protocol serving tests (DESIGN.md §15): content
// negotiation on /v1/query and /v1/ingest, JSON/wire answer agreement
// across exact, sampled, and degraded engines (single-store and
// partitioned), format-isolated coalescing, wire error frames on every
// refusal path, the errorBody marshal-failure fallback, and the wire.*
// observability counters.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

// postWire posts one wire frame and returns the status, response
// content type, and raw body.
func postWire(t *testing.T, url string, frame []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url, wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// parseKind parses a response frame and requires the given kind.
func parseKind(t *testing.T, body []byte, kind byte) []byte {
	t.Helper()
	k, payload, rest, err := wire.ParseFrame(body)
	if err != nil {
		t.Fatalf("response is not a wire frame: %v (%q)", err, body)
	}
	if k != kind {
		t.Fatalf("response frame kind = %d, want %d", k, kind)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after response frame", len(rest))
	}
	return payload
}

func wireQueryFrame(rect Rect, t1, t2 float64, kind, bound byte) []byte {
	return wire.MarshalQuery(wire.QueryFrame{
		Rect: [4]float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y},
		T1:   t1, T2: t2, Kind: kind, Bound: bound,
	})
}

func TestServeWireQuery(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{})
	sys := srv.System()
	rect := centered(sys, 0.5)

	status, ct, body := postWire(t, ts.URL+"/v1/query",
		wireQueryFrame(rect, wl.Horizon/4, wl.Horizon/2, wire.QueryTransient, wire.BoundLower))
	if status != http.StatusOK {
		t.Fatalf("wire query: HTTP %d: %q", status, body)
	}
	if !strings.HasPrefix(ct, wire.ContentType) {
		t.Errorf("response content type %q, want %q", ct, wire.ContentType)
	}
	res, err := wire.DecodeResult(parseKind(t, body, wire.KindResult))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 4, T2: wl.Horizon / 2, Kind: Transient})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want.Count || res.Missed != want.Missed || res.RegionFaces != want.RegionFaces {
		t.Errorf("wire answer %+v disagrees with library %+v", res, want)
	}

	// Every malformed request is a 400 carrying a wire error frame:
	// garbage bytes, a frame of the wrong kind, and unknown pinned enums.
	for name, bad := range map[string][]byte{
		"garbage":    []byte("not a frame"),
		"wrong kind": wire.MarshalIngest([]Event{MoveEvent(0, 0, 1)}, wire.DefaultTick),
		"bad kind":   wire.MarshalQuery(wire.QueryFrame{Kind: 9}),
		"bad bound":  wire.MarshalQuery(wire.QueryFrame{Bound: 7}),
		"truncated":  wireQueryFrame(rect, 0, 1, wire.QuerySnapshot, wire.BoundLower)[:10],
		"empty":      nil,
	} {
		status, ct, body := postWire(t, ts.URL+"/v1/query", bad)
		if status != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, status)
			continue
		}
		if !strings.HasPrefix(ct, wire.ContentType) {
			t.Errorf("%s: error content type %q, want wire", name, ct)
			continue
		}
		st, msg, err := wire.DecodeError(parseKind(t, body, wire.KindError))
		if err != nil || st != http.StatusBadRequest || msg == "" {
			t.Errorf("%s: error frame status=%d msg=%q err=%v", name, st, msg, err)
		}
	}

	// Non-POST with a wire content type gets a wire 405, not JSON.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: HTTP %d, want 405", resp.StatusCode)
	}
	if st, _, err := wire.DecodeError(parseKind(t, b, wire.KindError)); err != nil || st != http.StatusMethodNotAllowed {
		t.Errorf("GET error frame status=%d err=%v", st, err)
	}
}

func TestServeWireIngest(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{})
	sys := srv.System()
	road, from := firstMove(t, wl)
	before := sys.NumEvents()

	events := []Event{
		MoveEvent(road, from, wl.Horizon+10),
		MoveEvent(road, from, wl.Horizon+20),
		MoveEvent(road, from, wl.Horizon+30),
	}
	status, ct, body := postWire(t, ts.URL+"/v1/ingest", wire.MarshalIngest(events, wire.DefaultTick))
	if status != http.StatusOK {
		t.Fatalf("wire ingest: HTTP %d: %q", status, body)
	}
	if !strings.HasPrefix(ct, wire.ContentType) {
		t.Errorf("response content type %q, want wire", ct)
	}
	n, err := wire.DecodeIngestResult(parseKind(t, body, wire.KindIngestResult))
	if err != nil || n != len(events) {
		t.Fatalf("ingest result n=%d err=%v, want %d", n, err, len(events))
	}
	if got := sys.NumEvents(); got != before+len(events) {
		t.Errorf("NumEvents = %d, want %d", got, before+len(events))
	}

	// A corrupted frame (flipped payload bit) and an empty batch are 400s
	// with wire error frames; an ordering violation surfaces the engine's
	// verdict on the wire surface.
	corrupt := append([]byte(nil), wire.MarshalIngest(events, wire.DefaultTick)...)
	corrupt[len(corrupt)-1] ^= 0x01
	for name, bad := range map[string][]byte{
		"corrupt":     corrupt,
		"empty batch": wire.MarshalIngest(nil, wire.DefaultTick),
		"stale times": wire.MarshalIngest([]Event{MoveEvent(road, from, 1)}, wire.DefaultTick),
	} {
		status, _, body := postWire(t, ts.URL+"/v1/ingest", bad)
		if status != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, status)
			continue
		}
		if _, msg, err := wire.DecodeError(parseKind(t, body, wire.KindError)); err != nil || msg == "" {
			t.Errorf("%s: bad error frame: %v", name, err)
		}
	}
}

// TestServeWireJSONAgreement is the binary/JSON equivalence property:
// the same question asked on both surfaces must produce bit-identical
// engine answers — exact and sampled (placement) — on a single-store
// and a 4-partition server. TestServeWireJSONAgreementDegraded asks the
// same of answers a dead cell widened.
func TestServeWireJSONAgreement(t *testing.T) {
	t.Run("single", func(t *testing.T) { testWireJSONAgreement(t, 1) })
	t.Run("partitioned", func(t *testing.T) { testWireJSONAgreement(t, 4) })
}

func testWireJSONAgreement(t *testing.T, partitions int) {
	sys, wl := newTestSystem(t)
	if partitions > 1 {
		parted, err := NewPartitionedSystem(sys.World(), partitions)
		if err != nil {
			t.Fatal(err)
		}
		if err := parted.Ingest(wl); err != nil {
			t.Fatal(err)
		}
		sys = parted
	}
	agree := surfaceAgreement(t, sys, wl.Horizon)
	agree(t, "exact")
	if err := sys.PlaceSensors(PlacementQuadTree, 48, 9); err != nil {
		t.Fatal(err)
	}
	agree(t, "sampled")
}

// TestServeWireJSONAgreementDegraded: a router whose cell is dead
// serves the widened answers bit-identically on both surfaces — the
// bounds and both outage counters of every degradation report.
func TestServeWireJSONAgreementDegraded(t *testing.T) {
	_, tc, wl := newClusterPair(t, 4)
	if err := tc.sys.PlaceSensors(PlacementQuadTree, 25, 9); err != nil {
		t.Fatal(err)
	}
	agree := surfaceAgreement(t, tc.sys, wl.Horizon)
	tc.killCell(3)
	// The first query after the kill is the one that finds the cell
	// dead; every later one reads the same outage.
	if _, err := tc.sys.Query(Query{Rect: tc.sys.Bounds(), T1: wl.Horizon}); err != nil {
		t.Fatal(err)
	}
	if degraded := agree(t, "degraded"); degraded == 0 {
		t.Fatal("the dead cell widened no answer; fixture too weak")
	}
}

// surfaceAgreement serves sys and returns a check that asks every kind
// and bound over one rect on the JSON surface and then on the wire,
// sequentially, compares the answers field by field, and returns how
// many of them carried a degradation report.
func surfaceAgreement(t *testing.T, sys *System, horizon float64) func(t *testing.T, mode string) int {
	srv := NewServer(sys, ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})

	rect := centered(sys, 0.5)
	type ask struct {
		kind   string
		wkind  byte
		bound  string
		wbound byte
	}
	var asks []ask
	for _, k := range []ask{{kind: "snapshot", wkind: wire.QuerySnapshot}, {kind: "static", wkind: wire.QueryStatic}, {kind: "transient", wkind: wire.QueryTransient}} {
		for _, b := range []ask{{bound: "lower", wbound: wire.BoundLower}, {bound: "upper", wbound: wire.BoundUpper}} {
			asks = append(asks, ask{kind: k.kind, wkind: k.wkind, bound: b.bound, wbound: b.wbound})
		}
	}
	t1, t2 := horizon/4, horizon/2

	jsonPass := func(t *testing.T) []QueryResult {
		out := make([]QueryResult, len(asks))
		for i, a := range asks {
			status, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{
				Rect: [4]float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y},
				T1:   t1, T2: t2, Kind: a.kind, Bound: a.bound,
			})
			if status != http.StatusOK {
				t.Fatalf("JSON ask %d: HTTP %d: %s", i, status, body)
			}
			if err := json.Unmarshal(body, &out[i]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	wirePass := func(t *testing.T) []wire.ResultFrame {
		out := make([]wire.ResultFrame, len(asks))
		for i, a := range asks {
			status, _, body := postWire(t, ts.URL+"/v1/query", wireQueryFrame(rect, t1, t2, a.wkind, a.wbound))
			if status != http.StatusOK {
				t.Fatalf("wire ask %d: HTTP %d: %q", i, status, body)
			}
			var err error
			if out[i], err = wire.DecodeResult(parseKind(t, body, wire.KindResult)); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	return func(t *testing.T, mode string) int {
		t.Helper()
		js, ws := jsonPass(t), wirePass(t)
		degraded := 0
		for i := range asks {
			j, w := js[i], ws[i]
			if math.Float64bits(j.Count) != math.Float64bits(w.Count) ||
				j.Missed != w.Missed ||
				j.RegionFaces != w.RegionFaces ||
				j.NodesAccessed != w.NodesAccessed ||
				j.Messages != w.Messages ||
				j.Hops != w.Hops ||
				j.TotalHops != w.TotalHops ||
				j.EdgesAccessed != w.EdgesAccessed {
				t.Errorf("%s %s/%s: JSON %+v != wire %+v", mode, asks[i].kind, asks[i].bound, j, w)
			}
			if (j.Degradation != nil) != w.Degraded {
				t.Errorf("%s %s/%s: degradation presence JSON=%v wire=%v",
					mode, asks[i].kind, asks[i].bound, j.Degradation != nil, w.Degraded)
				continue
			}
			if d := j.Degradation; d != nil {
				degraded++
				wd := w.Degradation
				if math.Float64bits(d.Lower) != math.Float64bits(wd.Lower) ||
					math.Float64bits(d.Upper) != math.Float64bits(wd.Upper) ||
					d.UnobservedCuts != wd.UnobservedCuts ||
					d.FailedNodes != wd.FailedNodes {
					t.Errorf("%s %s/%s: degradation JSON %+v != wire %+v", mode, asks[i].kind, asks[i].bound, *d, wd)
				}
			}
		}
		return degraded
	}
}

// TestServeWireCoalescingFormatIsolation: a wire request must never be
// handed a JSON leader's bytes. With a JSON leader held inside the
// engine, an identical wire question must start its own execution.
func TestServeWireCoalescingFormatIsolation(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{MaxInflight: 8})
	sys := srv.System()

	gate := make(chan struct{})
	var execs atomic.Int32
	srv.queryFn = func(q Query) (*Response, error) {
		execs.Add(1)
		<-gate
		return sys.Query(q)
	}

	rect := centered(sys, 0.4)
	jsonBody, err := json.Marshal(QueryRequest{
		Rect: [4]float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y},
		T1:   wl.Horizon / 4, T2: wl.Horizon / 2, Kind: "snapshot",
	})
	if err != nil {
		t.Fatal(err)
	}
	wireBody := wireQueryFrame(rect, wl.Horizon/4, wl.Horizon/2, wire.QuerySnapshot, wire.BoundLower)

	type result struct {
		status int
		ct     string
		body   []byte
	}
	results := make(chan result, 2)
	post := func(ct string, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/query", ct, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			results <- result{}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		results <- result{resp.StatusCode, resp.Header.Get("Content-Type"), b}
	}

	go post("application/json", jsonBody)
	waitFor(t, func() bool { return execs.Load() == 1 }, "JSON leader to reach the engine")
	go post(wire.ContentType, wireBody)
	// The wire request must not coalesce onto the JSON flight: it reaches
	// the engine on its own while the JSON leader is still blocked.
	waitFor(t, func() bool { return execs.Load() == 2 }, "wire request to start its own execution")
	close(gate)

	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %q", i, r.status, r.body)
		}
		switch {
		case strings.HasPrefix(r.ct, wire.ContentType):
			if _, err := wire.DecodeResult(parseKind(t, r.body, wire.KindResult)); err != nil {
				t.Errorf("wire response does not decode: %v", err)
			}
		case strings.HasPrefix(r.ct, "application/json"):
			var qr QueryResult
			if err := json.Unmarshal(r.body, &qr); err != nil {
				t.Errorf("JSON response does not decode: %v (%q)", err, r.body)
			}
		default:
			t.Errorf("unexpected response content type %q", r.ct)
		}
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("engine executed %d times, want 2 (one per format)", n)
	}
	if st := srv.Stats(); st.Coalesced != 0 {
		t.Errorf("Coalesced = %d across formats, want 0", st.Coalesced)
	}
}

// TestErrorBodyMarshalFailure: errorBody must degrade to the static
// pre-encoded payload when encoding the real error fails, instead of
// returning invalid or empty JSON (the pre-fix code discarded the
// json.Marshal error).
func TestErrorBodyMarshalFailure(t *testing.T) {
	orig := jsonMarshal
	jsonMarshal = func(any) ([]byte, error) { return nil, errors.New("encoder broken") }
	defer func() { jsonMarshal = orig }()

	body := errorBody(errors.New("real failure"))
	if !bytes.Equal(body, staticErrorBody) {
		t.Fatalf("errorBody under marshal failure = %q, want static fallback %q", body, staticErrorBody)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Fatalf("fallback body %q is not a valid error payload (%v)", body, err)
	}

	// End to end: an HTTP error response still carries well-formed JSON.
	rec := httptest.NewRecorder()
	refuse(rec, jsonCodec{}, http.StatusTeapot, "whatever")
	if rec.Code != http.StatusTeapot || !bytes.Equal(rec.Body.Bytes(), staticErrorBody) {
		t.Fatalf("refuse wrote %d %q", rec.Code, rec.Body.Bytes())
	}
}

// TestServeWireMetrics: wire traffic surfaces in the wire.* obs
// counters and the Prometheus exposition.
func TestServeWireMetrics(t *testing.T) {
	ResetObservability()
	EnableObservability()
	defer func() {
		DisableObservability()
		ResetObservability()
	}()

	srv, wl, ts := newTestServer(t, ServerConfig{})
	sys := srv.System()
	road, from := firstMove(t, wl)
	rect := centered(sys, 0.5)

	postWire(t, ts.URL+"/v1/ingest", wire.MarshalIngest([]Event{MoveEvent(road, from, wl.Horizon+10)}, wire.DefaultTick))
	postWire(t, ts.URL+"/v1/query", wireQueryFrame(rect, 0, wl.Horizon, wire.QuerySnapshot, wire.BoundLower))
	postWire(t, ts.URL+"/v1/query", []byte("garbage frame"))

	snap := sys.Snapshot()
	for name, min := range map[string]uint64{
		"wire.frames_total.ingest": 1,
		"wire.frames_total.query":  1,
		"wire.frames_total.result": 2, // result + ingest-result
		"wire.frames_total.error":  1,
		"wire.decode_errors":       1,
		"wire.bytes_in":            1,
		"wire.bytes_out":           1,
		"serve.wire_requests":      3,
	} {
		if got := snap.Counter(name); got < min {
			t.Errorf("counter %s = %d, want >= %d", name, got, min)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"wire_frames_total_ingest", "wire_frames_total_query",
		"wire_decode_errors", "wire_bytes_in", "wire_bytes_out",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// nopResponseWriter discards the response; it isolates the writeJSON
// allocation benchmarks from recorder bookkeeping.
type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.h }
func (w nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nopResponseWriter) WriteHeader(int)             {}

var benchResult = QueryResult{
	Count: 1234.5, RegionFaces: 17, NodesAccessed: 211, Messages: 340,
	Hops: 12, TotalHops: 480, EdgesAccessed: 96,
}

// BenchmarkWriteJSONPooled measures the pooled response writer;
// BenchmarkWriteJSONUnpooled is the pre-pooling json.Marshal path kept
// as the before/after baseline.
func BenchmarkWriteJSONPooled(b *testing.B) {
	w := nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		writeJSON(w, http.StatusOK, benchResult)
	}
}

func BenchmarkWriteJSONUnpooled(b *testing.B) {
	w := nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bts, err := json.Marshal(benchResult)
		if err != nil {
			b.Fatal(err)
		}
		write(w, jsonCodec{}, http.StatusOK, bts)
	}
}
