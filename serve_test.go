package stq

// Serving-layer tests: handler behavior over real HTTP (httptest),
// in-flight query coalescing, graceful drain, and ingest group commit
// (admission control and the other refusals: serve_codec_test.go).
// They run under -race in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mobility"
)

// newTestServer wraps a fresh test system in a Server and an
// httptest.Server; both are torn down with the test.
func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *Workload, *httptest.Server) {
	t.Helper()
	sys, wl := newTestSystem(t)
	srv := NewServer(sys, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv, wl, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, string(b))
}

func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// waitFor polls cond until true or the deadline trips the test.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// firstMove returns a valid (road, from) pair from the workload.
func firstMove(t *testing.T, wl *Workload) (EdgeID, NodeID) {
	t.Helper()
	for _, ev := range wl.Events {
		if ev.Kind == mobility.Move {
			return ev.Road, ev.From
		}
	}
	t.Fatal("workload has no move events")
	return 0, 0
}

func TestServeQueryHandler(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{})
	sys := srv.System()

	// A well-formed query answers with the same result the library gives.
	rect := centered(sys, 0.5)
	req := QueryRequest{
		Rect: [4]float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y},
		T1:   wl.Horizon / 4, T2: wl.Horizon / 2, Kind: "transient",
	}
	status, body := postJSON(t, ts.URL+"/v1/query", req)
	if status != http.StatusOK {
		t.Fatalf("query: HTTP %d: %s", status, body)
	}
	var res QueryResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad response body %q: %v", body, err)
	}
	want, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 4, T2: wl.Horizon / 2, Kind: Transient})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want.Count || res.Missed != want.Missed {
		t.Errorf("served %v/%v, library %v/%v", res.Count, res.Missed, want.Count, want.Missed)
	}

	// Malformed JSON and unknown enums are 400s with an error body.
	for _, bad := range []string{
		`{"rect":[0,0,`,
		`{"rect":[0,0,10,10],"kind":"sideways"}`,
		`{"rect":[0,0,10,10],"bound":"middle"}`,
	} {
		status, body := postRaw(t, ts.URL+"/v1/query", bad)
		if status != http.StatusBadRequest {
			t.Errorf("body %q: HTTP %d, want 400", bad, status)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("body %q: error payload %q", bad, body)
		}
	}

	// Non-POST methods are rejected.
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query: HTTP %d, want 405", resp.StatusCode)
	}
	if srv.Stats().BadRequests != 3 {
		t.Errorf("BadRequests = %d, want 3", srv.Stats().BadRequests)
	}
}

func TestServeIngestHandler(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{})
	sys := srv.System()
	road, from := firstMove(t, wl)
	before := sys.NumEvents()

	// Times must extend the pre-ingested stream on this direction.
	req := IngestRequest{Events: []IngestEvent{
		{Kind: "move", T: wl.Horizon + 10, Road: int(road), From: int(from)},
		{Kind: "move", T: wl.Horizon + 20, Road: int(road), From: int(from)},
	}}
	status, body := postJSON(t, ts.URL+"/v1/ingest", req)
	if status != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", status, body)
	}
	var res IngestResult
	if err := json.Unmarshal(body, &res); err != nil || res.Ingested != 2 {
		t.Fatalf("ingest result %q (err %v)", body, err)
	}
	if got := sys.NumEvents(); got != before+2 {
		t.Errorf("NumEvents = %d, want %d", got, before+2)
	}

	// Bad batches: empty, unknown kind, and an ordering violation all 400.
	for _, bad := range []string{
		`{"events":[]}`,
		`{"events":[{"kind":"teleport","t":1}]}`,
		fmt.Sprintf(`{"events":[{"kind":"move","t":1,"road":%d,"from":%d}]}`, road, from),
	} {
		if status, _ := postRaw(t, ts.URL+"/v1/ingest", bad); status != http.StatusBadRequest {
			t.Errorf("body %q: HTTP %d, want 400", bad, status)
		}
	}
	st := srv.Stats()
	if st.IngestRequests != 1 || st.IngestEvents != 2 {
		t.Errorf("stats %+v, want 1 request / 2 events", st)
	}
}

// TestServeQueryCoalescing holds the leader inside the engine while
// seven identical requests arrive: all eight must come back 200 with
// byte-identical bodies from exactly one engine execution.
func TestServeQueryCoalescing(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{MaxInflight: 16})
	sys := srv.System()

	gate := make(chan struct{})
	var execs atomic.Int32
	srv.queryFn = func(q Query) (*Response, error) {
		execs.Add(1)
		<-gate
		return sys.Query(q)
	}

	rect := centered(sys, 0.4)
	req := QueryRequest{
		Rect: [4]float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y},
		T1:   wl.Horizon / 4, T2: wl.Horizon / 2, Kind: "snapshot",
	}
	q, err := req.toQuery()
	if err != nil {
		t.Fatal(err)
	}
	key := coalesceKeyOf(q)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	type result struct {
		status int
		body   string
	}
	results := make(chan result, clients)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			results <- result{}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		results <- result{resp.StatusCode, string(b)}
	}

	go post() // leader
	waitFor(t, func() bool { return execs.Load() == 1 }, "leader to reach the engine")
	for i := 1; i < clients; i++ {
		go post()
	}
	waitFor(t, func() bool { return srv.flight.pendingWaiters(key) == clients-1 },
		"followers to join the in-flight call")
	close(gate)

	first := ""
	for i := 0; i < clients; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("client %d: HTTP %d: %s", i, r.status, r.body)
		}
		if first == "" {
			first = r.body
		} else if r.body != first {
			t.Fatalf("responses diverge: %q vs %q", first, r.body)
		}
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("engine executed %d times, want 1", n)
	}
	st := srv.Stats()
	if st.QueryExecs != 1 || st.Coalesced != clients-1 {
		t.Errorf("stats execs=%d coalesced=%d, want 1/%d", st.QueryExecs, st.Coalesced, clients-1)
	}
}

// TestServePrivacyBudget asserts an exhausted ε budget maps to 429, not
// a generic 400.
func TestServePrivacyBudget(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{})
	sys := srv.System()
	if err := sys.EnablePrivacy(0.25, 0.1); err != nil {
		t.Fatal(err)
	}

	statusAt := func(i int) (int, []byte) {
		r := centered(sys, 0.3+0.04*float64(i)) // distinct rects: no coalescing
		return postJSON(t, ts.URL+"/v1/query", QueryRequest{
			Rect: [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y},
			T1:   0, T2: wl.Horizon, Kind: "snapshot",
		})
	}
	for i := 0; i < 2; i++ {
		if status, body := statusAt(i); status != http.StatusOK {
			t.Fatalf("query %d within budget: HTTP %d: %s", i, status, body)
		}
	}
	status, body := statusAt(2)
	if status != http.StatusTooManyRequests {
		t.Fatalf("budget-exhausted query: HTTP %d (%s), want 429", status, body)
	}
	if !strings.Contains(string(body), "budget exhausted") {
		t.Errorf("429 body %q does not name the budget", body)
	}
}

// TestServeGracefulDrain starts a drain while a query is blocked inside
// the engine: the in-flight request must complete 200, and afterwards
// the serving endpoints must refuse with 503 while introspection stays
// readable.
func TestServeGracefulDrain(t *testing.T) {
	sys, wl := newTestSystem(t)
	srv := NewServer(sys, ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	gate := make(chan struct{})
	var execs atomic.Int32
	srv.queryFn = func(q Query) (*Response, error) {
		execs.Add(1)
		<-gate
		return sys.Query(q)
	}

	rect := centered(sys, 0.5)
	body, _ := json.Marshal(QueryRequest{
		Rect: [4]float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y},
		T1:   0, T2: wl.Horizon, Kind: "snapshot",
	})
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitFor(t, func() bool { return execs.Load() == 1 }, "request to reach the engine")

	// Shutdown stops the listener and waits for the in-flight handler.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- ts.Config.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown begin
	close(gate)

	if s := <-status; s != http.StatusOK {
		t.Fatalf("in-flight request during shutdown: HTTP %d, want 200", s)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Post-drain: serving refuses, introspection answers.
	get := func(path string) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain query: HTTP %d, want 503", rec.Code)
	}
	if c := get("/healthz"); c != http.StatusServiceUnavailable {
		t.Errorf("post-drain healthz: HTTP %d, want 503", c)
	}
	if c := get("/v1/stats"); c != http.StatusOK {
		t.Errorf("post-drain stats: HTTP %d, want 200", c)
	}
	if c := get("/metrics"); c != http.StatusOK {
		t.Errorf("post-drain metrics: HTTP %d, want 200", c)
	}
}

// TestServeDrainCheckpoint asserts the final drain checkpoint persists
// served ingest: a reopened system recovers every event without the
// server's help.
func TestServeDrainCheckpoint(t *testing.T) {
	w := durableTestWorld(t)
	dir := t.TempDir()
	sys, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys, ServerConfig{})
	ts := httptest.NewServer(srv)

	// Any road of the raw world with one of its endpoints is a valid
	// (road, from) pair for a move.
	road, from := 0, int(w.Star.Edge(0).U)
	status, body := postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Events: []IngestEvent{
		{Kind: "move", T: 10, Road: road, From: from},
		{Kind: "move", T: 20, Road: road, From: from},
		{Kind: "move", T: 30, Road: road, From: from},
	}})
	if status != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", status, body)
	}

	// /v1/checkpoint works on a durable system.
	if status, body := postJSON(t, ts.URL+"/v1/checkpoint", struct{}{}); status != http.StatusOK {
		t.Fatalf("checkpoint: HTTP %d: %s", status, body)
	}

	ts.Close()
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	want := sys.NumEvents()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumEvents(); got != want {
		t.Errorf("recovered %d events, want %d", got, want)
	}
}

// TestServeCheckpointNotDurable asserts /v1/checkpoint on an in-memory
// system is a 409, not a success or a 500.
func TestServeCheckpointNotDurable(t *testing.T) {
	_, _, ts := newTestServer(t, ServerConfig{})
	if status, _ := postJSON(t, ts.URL+"/v1/checkpoint", struct{}{}); status != http.StatusConflict {
		t.Fatalf("checkpoint on in-memory system: HTTP %d, want 409", status)
	}
}

// TestServeGroupCommit exercises the batcher's commit path directly: a
// compatible group combines into one RecordBatch; a group whose
// combined stream violates ordering falls back per-request so each
// client gets its own verdict.
func TestServeGroupCommit(t *testing.T) {
	sys, wl := newTestSystem(t)
	srv := NewServer(sys, ServerConfig{})
	t.Cleanup(func() { _ = srv.Drain() })
	road, from := firstMove(t, wl)

	mk := func(ts ...float64) ingestReq {
		events := make([]Event, len(ts))
		for i, tt := range ts {
			events[i] = MoveEvent(road, from, tt)
		}
		return ingestReq{events: events, done: make(chan error, 1)}
	}

	// Compatible group: both requests succeed through one combined batch.
	a, b := mk(wl.Horizon+10, wl.Horizon+20), mk(wl.Horizon+30)
	srv.commit([]ingestReq{a, b}, 3)
	if err := <-a.done; err != nil {
		t.Fatalf("request a: %v", err)
	}
	if err := <-b.done; err != nil {
		t.Fatalf("request b: %v", err)
	}
	st := srv.Stats()
	if st.GroupCommits != 1 || st.GroupedRequests != 2 {
		t.Errorf("stats %+v, want 1 group commit of 2 requests", st)
	}

	// Conflicting group: combined [c@+200, d@+100] goes back in time on
	// one direction, so the combined batch fails and the fallback applies
	// per-request — c succeeds, d genuinely violates ordering and fails.
	c, d := mk(wl.Horizon+200), mk(wl.Horizon+100)
	srv.commit([]ingestReq{c, d}, 2)
	if err := <-c.done; err != nil {
		t.Fatalf("request c should succeed via fallback: %v", err)
	}
	if err := <-d.done; err == nil {
		t.Fatal("request d should fail: its event precedes c's on the same direction")
	}
}

// TestServeStatsEndpoint sanity-checks the introspection payload.
func TestServeStatsEndpoint(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{})
	sys := srv.System()
	rect := centered(sys, 0.5)
	postJSON(t, ts.URL+"/v1/query", QueryRequest{
		Rect: [4]float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y},
		T1:   0, T2: wl.Horizon, Kind: "snapshot",
	})

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		QueryExecs   uint64
		ServingEpoch uint64                 `json:"serving_epoch"`
		PlanCache    struct{ Enabled bool } `json:"plan_cache"`
		Draining     bool                   `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.QueryExecs != 1 {
		t.Errorf("QueryExecs = %d, want 1", body.QueryExecs)
	}
	if !body.PlanCache.Enabled {
		t.Error("plan cache reported disabled")
	}
	if body.Draining {
		t.Error("draining reported before drain")
	}
}
