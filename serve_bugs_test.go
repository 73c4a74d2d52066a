package stq

// Regression tests for serving-layer bugs: the drain/ingest enqueue
// race, failure sharing in query coalescing, private queries charged
// once for many, query-error status classification, and trailing
// garbage after JSON bodies. Each test fails against the pre-fix code.
// They run under -race in CI.

import (
	"bytes"
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
	"time"

	"repro/internal/roadnet"
)

// TestServeDrainRejectsStragglerIngest: an ingest handler that passed
// the top-level drain check before Drain flipped the flag must not
// enqueue after Drain's final flush — pre-fix it enqueued into a
// channel nothing drains and blocked on its done channel forever.
// Calling the route handler directly models exactly that straggler.
func TestServeDrainRejectsStragglerIngest(t *testing.T) {
	srv, wl, _ := newTestServer(t, ServerConfig{})
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	road, from := firstMove(t, wl)
	body, err := json.Marshal(IngestRequest{Events: []IngestEvent{
		{Kind: "move", T: wl.Horizon * 2, Road: int(road), From: int(from)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(string(body)))
		srv.handleIngest(rec, req)
		done <- rec.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("straggler ingest got %d, want 503", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("straggler ingest hung after Drain (pre-fix deadlock)")
	}
}

// TestServeDrainIngestRace hammers ingest requests while Drain runs
// concurrently: every request must terminate with a definite verdict
// (200, 429, or 503) — none may hang — and the race detector must stay
// quiet across the draining transition.
func TestServeDrainIngestRace(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{MaxInflight: 4, MaxQueued: 8})
	gw := srv.System().Gateways()[0]
	var wg sync.WaitGroup
	start := make(chan struct{})
	const clients = 8
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			body := fmt.Sprintf(`{"events":[{"kind":"enter","gateway":%d,"t":%v}]}`,
				int(gw), wl.Horizon*2+float64(i))
			status, _ := postRaw(t, ts.URL+"/v1/ingest", body)
			codes[i] = status
		}(i)
	}
	close(start)
	// Drain races the in-flight ingests.
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("ingest requests hung across a concurrent Drain")
	}
	for i, code := range codes {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("client %d: unexpected status %d", i, code)
		}
	}
}

// TestServeCoalesceDoesNotShareFailures: followers coalesced behind a
// leader whose execution fails must not inherit the failure — each
// falls back to its own execution. Pre-fix the leader's error response
// was shared byte-for-byte with every follower.
func TestServeCoalesceDoesNotShareFailures(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{MaxInflight: 16})
	sys := srv.System()
	rect := centered(sys, 0.5)
	q := Query{Rect: rect, T1: wl.Horizon / 4, T2: wl.Horizon / 2, Kind: Transient}
	key := coalesceKeyOf(q)

	var execs atomic.Int64
	release := make(chan struct{})
	var blockOnce sync.Once
	srv.queryFn = func(Query) (*Response, error) {
		n := execs.Add(1)
		if n == 1 {
			// Leader: hold the flight open until followers queue up.
			blockOnce.Do(func() { <-release })
		}
		return nil, fmt.Errorf("injected engine failure %d", n)
	}

	req := QueryRequest{
		Rect: [4]float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y},
		T1:   wl.Horizon / 4, T2: wl.Horizon / 2, Kind: "transient",
	}
	const followers = 3
	var wg sync.WaitGroup
	statuses := make([]int, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postJSON(t, ts.URL+"/v1/query", req)
		}(i)
		if i == 0 {
			// Let the leader enter the flight before followers arrive.
			waitFor(t, func() bool { return execs.Load() >= 1 }, "leader execution")
		}
	}
	waitFor(t, func() bool { return srv.flight.pendingWaiters(key) >= followers }, "followers queued")
	close(release)
	wg.Wait()

	if got := execs.Load(); got != followers+1 {
		t.Fatalf("%d executions; want %d (leader + one per follower, no failure sharing)", got, followers+1)
	}
	for i, code := range statuses {
		if code != http.StatusInternalServerError {
			t.Errorf("request %d: status %d, want 500", i, code)
		}
	}
	if c := srv.Stats().Coalesced; c != 0 {
		t.Errorf("%d requests counted coalesced; failures must not share", c)
	}

	// Successful answers still coalesce: one execution, N shares.
	execs.Store(0)
	release2 := make(chan struct{})
	var block2 sync.Once
	srv.queryFn = func(qq Query) (*Response, error) {
		execs.Add(1)
		block2.Do(func() { <-release2 })
		return sys.Query(qq)
	}
	var wg2 sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			status, _ := postJSON(t, ts.URL+"/v1/query", req)
			if status != http.StatusOK {
				t.Errorf("coalesced success: status %d", status)
			}
		}()
		if i == 0 {
			waitFor(t, func() bool { return execs.Load() >= 1 }, "leader execution")
		}
	}
	waitFor(t, func() bool { return srv.flight.pendingWaiters(key) >= followers }, "followers queued")
	close(release2)
	wg2.Wait()
	if got := execs.Load(); got != 1 {
		t.Errorf("%d executions for coalesced successes; want 1", got)
	}
	if c := srv.Stats().Coalesced; c != followers {
		t.Errorf("Coalesced = %d, want %d", c, followers)
	}
}

// TestServeEveryPrivateQueryCharged: with privacy on, eight identical
// queries in flight at once are each charged ε, as System.Query charges
// it, so the budget of eight is spent and the ninth gets 429. A timed
// barrier in the engine seam holds each request until all eight are
// there; a server that let one request answer for the others would
// charge ε once and serve the ninth.
func TestServeEveryPrivateQueryCharged(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{MaxInflight: 16})
	sys := srv.System()
	const clients = 8
	if err := sys.EnablePrivacy(clients*0.125, 0.125); err != nil {
		t.Fatal(err)
	}
	var arrived atomic.Int32
	all := make(chan struct{})
	srv.queryFn = func(q Query) (*Response, error) {
		if arrived.Add(1) == clients {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(2 * time.Second):
		}
		return sys.Query(q)
	}

	rect := centered(sys, 0.5)
	req := QueryRequest{
		Rect: [4]float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y},
		T1:   wl.Horizon / 4, T2: wl.Horizon / 2, Kind: "snapshot",
	}
	var wg sync.WaitGroup
	statuses := make([]int, clients)
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postJSON(t, ts.URL+"/v1/query", req)
		}(i)
	}
	wg.Wait()
	for i, code := range statuses {
		if code != http.StatusOK {
			t.Errorf("request %d: HTTP %d, want 200", i, code)
		}
	}
	if got := sys.PrivacyBudgetRemaining(); got != 0 {
		t.Errorf("%v ε left after %d private queries of 0.125, want 0", got, clients)
	}
	if status, body := postJSON(t, ts.URL+"/v1/query", req); status != http.StatusTooManyRequests {
		t.Errorf("query past the budget: HTTP %d (%s), want 429", status, body)
	}
}

// TestServeQueryErrorStatus: request-shaped engine errors are 400,
// privacy-budget exhaustion is 429, and everything else — internal
// engine failures included — is 500, not a blamed-on-the-client 400.
func TestServeQueryErrorStatus(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{})
	sys := srv.System()
	rect := centered(sys, 0.5)

	mkReq := func(mut func(*QueryRequest)) QueryRequest {
		r := QueryRequest{
			Rect: [4]float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y},
			T1:   wl.Horizon / 4, T2: wl.Horizon / 2, Kind: "transient",
		}
		if mut != nil {
			mut(&r)
		}
		return r
	}

	// Request-shaped: empty rectangle and inverted time range are the
	// client's fault.
	for name, req := range map[string]QueryRequest{
		"empty rect":    mkReq(func(r *QueryRequest) { r.Rect = [4]float64{10, 10, 0, 0} }),
		"inverted time": mkReq(func(r *QueryRequest) { r.T1, r.T2 = r.T2, r.T1 }),
	} {
		status, body := postJSON(t, ts.URL+"/v1/query", req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, status, body)
		}
	}

	// Internal failure: 500. Pre-fix this was a 400.
	srv.queryFn = func(Query) (*Response, error) {
		return nil, errors.New("store wedged")
	}
	if status, body := postJSON(t, ts.URL+"/v1/query", mkReq(nil)); status != http.StatusInternalServerError {
		t.Errorf("internal failure: status %d, want 500 (%s)", status, body)
	}

	// Privacy budget exhaustion: 429, the retryable resource error.
	srv.queryFn = func(Query) (*Response, error) {
		return nil, fmt.Errorf("budget: %w", ErrPrivacyBudgetExhausted)
	}
	if status, body := postJSON(t, ts.URL+"/v1/query", mkReq(func(r *QueryRequest) { r.T2++ })); status != http.StatusTooManyRequests {
		t.Errorf("budget exhaustion: status %d, want 429 (%s)", status, body)
	}
}

// TestServeRejectsTrailingGarbage: request bodies must be exactly one
// JSON value. Pre-fix, `{...}garbage` decoded the prefix and silently
// dropped the rest — masking client bugs as successful requests. The
// same goes for a rect: `[4]float64` dropped a fifth number and
// zero-filled a missing fourth. Each rect case is asked in the
// canonical dialect (the scanner counts) and with an upper-case key
// (encoding/json decodes a slice whose length is checked).
func TestServeRejectsTrailingGarbage(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{})
	gw := srv.System().Gateways()[0]
	ingest := func(tail string) string {
		return fmt.Sprintf(`{"events":[{"kind":"enter","gateway":%d,"t":%v}]}%s`,
			int(gw), wl.Horizon*2, tail)
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"ingest clean", "/v1/ingest", ingest(""), http.StatusOK},
		{"ingest trailing whitespace", "/v1/ingest", ingest("  \n\t "), http.StatusOK},
		{"ingest trailing garbage", "/v1/ingest", ingest("garbage"), http.StatusBadRequest},
		{"ingest second value", "/v1/ingest", ingest(` {"events":[]}`), http.StatusBadRequest},
		{"ingest trailing array", "/v1/ingest", ingest("[]"), http.StatusBadRequest},
		{"query second value", "/v1/query", `{"rect":[0,0,1,1],"t1":1} {}`, http.StatusBadRequest},
		{"query trailing scalar", "/v1/query", `{"rect":[0,0,1,1],"t1":1} 7`, http.StatusBadRequest},
		{"query clean", "/v1/query", `{"rect":[100,100,300,300],"t1":100}`, http.StatusOK},
		{"query clean, fallback", "/v1/query", `{"RECT":[100,100,300,300],"t1":100}`, http.StatusOK},
		{"rect of six", "/v1/query", `{"rect":[100,100,300,300,99,98],"t1":100}`, http.StatusBadRequest},
		{"rect of six, fallback", "/v1/query", `{"RECT":[100,100,300,300,99,98],"t1":100}`, http.StatusBadRequest},
		{"rect of three", "/v1/query", `{"rect":[100,100,300],"t1":100}`, http.StatusBadRequest},
		{"rect of three, fallback", "/v1/query", `{"RECT":[100,100,300],"t1":100}`, http.StatusBadRequest},
		{"rect of none", "/v1/query", `{"rect":[],"t1":100}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body := postRaw(t, ts.URL+tc.path, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, body)
		}
	}
}

// TestServeIngestRequiresT: an event with no t key used to be stamped
// at time 0 and, on a fresh form, applied. It is refused on both decode
// paths, by position; an explicit "t":0 stays legal.
func TestServeIngestRequiresT(t *testing.T) {
	sys, err := NewGridCitySystem(GridOpts{NX: 6, NY: 6, Spacing: 80, Jitter: 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys, ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Drain()
	})
	gw := int(sys.Gateways()[0])
	for _, body := range []string{
		fmt.Sprintf(`{"events":[{"kind":"enter","gateway":%d}]}`, gw),
		fmt.Sprintf(`{"events":[{"kind":"enter","gateway":%d,"t":5},{"kind":"leave","gateway":%d}]}`, gw, gw),
		fmt.Sprintf(`{"events":[{"KIND":"enter","gateway":%d}]}`, gw), // off the scanner's dialect from the start
		fmt.Sprintf(`{"events":[{"kind":"enter","gateway":%d,"t":null}]}`, gw),
	} {
		status, out := postRaw(t, ts.URL+"/v1/ingest", body)
		if status != http.StatusBadRequest || !strings.Contains(string(out), "missing t") {
			t.Errorf("%s: HTTP %d %s, want 400 naming the missing t", body, status, out)
		}
	}
	if n := sys.NumEvents(); n != 0 {
		t.Fatalf("%d events applied from batches with an unstamped event", n)
	}
	if _, out := postRaw(t, ts.URL+"/v1/ingest", fmt.Sprintf(`{"events":[{"kind":"enter","gateway":%d,"t":5},{"kind":"leave","gateway":%d}]}`, gw, gw)); !strings.Contains(string(out), "event 1: missing t") {
		t.Errorf("refusal %s does not name event 1", out)
	}
	if status, out := postRaw(t, ts.URL+"/v1/ingest", fmt.Sprintf(`{"events":[{"kind":"enter","gateway":%d,"t":0}]}`, gw)); status != http.StatusOK {
		t.Errorf(`explicit "t":0: HTTP %d %s, want 200`, status, out)
	}
}

// TestServeGroupCommitNotDurable: a durable system appends before it
// applies, so a failed append (here: the log is closed under a system
// that still takes ingestion) applies nothing. A group over such a log
// falls back to per-request commits like any refused group — each
// refused again, nothing applied — every request gets ErrNotDurable, and
// the handler answers the server-side failure 500, not 400.
func TestServeGroupCommitNotDurable(t *testing.T) {
	w := durableTestWorld(t)
	sys, err := OpenDurable(w, Durability{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys, ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Drain() // the final checkpoint fails on the closed log
	})
	if err := sys.log.Close(); err != nil {
		t.Fatal(err)
	}

	from := w.Star.Edge(0).U
	a := ingestReq{events: []Event{MoveEvent(0, from, 10), MoveEvent(0, from, 20)}, done: make(chan error, 1)}
	b := ingestReq{events: []Event{MoveEvent(0, from, 30)}, done: make(chan error, 1)}
	srv.commit([]ingestReq{a, b}, 3)
	for i, r := range []ingestReq{a, b} {
		if err := <-r.done; !errors.Is(err, ErrNotDurable) {
			t.Errorf("request %d: got %v, want ErrNotDurable", i, err)
		}
	}
	if n := sys.NumEvents(); n != 0 {
		t.Fatalf("NumEvents = %d after one 3-event group over a failed log, want 0", n)
	}

	status, body := postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Events: []IngestEvent{
		{Kind: "move", T: 40, Road: 0, From: int(from)},
	}})
	if status != http.StatusInternalServerError {
		t.Fatalf("ingest over a failed log: HTTP %d, want 500: %s", status, body)
	}
}

// TestServeDrainAnswersQueuedRequest503: a request parked in the
// admission waiting room when Drain closes the gate is a casualty of
// the shutdown, not of load. Pre-fix admit reported it as "no room",
// so it got 429 "server at capacity" with Retry-After and was counted
// in Stats().Rejected.
func TestServeDrainAnswersQueuedRequest503(t *testing.T) {
	srv, wl, ts := newTestServer(t, ServerConfig{MaxInflight: 1, MaxQueued: 4})
	sys := srv.System()
	gate := make(chan struct{})
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before the server's cleanup, which waits for the held request
	var execs atomic.Int32
	srv.queryFn = func(q Query) (*Response, error) {
		execs.Add(1)
		<-gate
		return sys.Query(q)
	}
	rect := centered(sys, 0.4)
	req := QueryRequest{
		Rect: [4]float64{rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y},
		T1:   wl.Horizon / 2, Kind: "snapshot",
	}

	type result struct {
		status int
		body   []byte
	}
	running, queued := make(chan result, 1), make(chan result, 1)
	reqBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func(out chan<- result) { // off the test goroutine: t.Error, never t.Fatal
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Error(err)
			out <- result{}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		out <- result{resp.StatusCode, body}
	}
	go post(running)
	waitFor(t, func() bool { return execs.Load() == 1 }, "first request to hold the only slot")
	go post(queued)
	waitFor(t, func() bool { return srv.waiters.Load() == 1 }, "second request to enter the waiting room")

	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	got := <-queued
	if got.status != http.StatusServiceUnavailable || !strings.Contains(string(got.body), "draining") {
		t.Fatalf("queued request at Drain: HTTP %d %s, want 503 server draining", got.status, got.body)
	}
	release()
	if got := <-running; got.status != http.StatusOK {
		t.Fatalf("admitted request: HTTP %d %s, want 200", got.status, got.body)
	}
	if n := srv.Stats().Rejected; n != 0 {
		t.Fatalf("Stats().Rejected = %d after a drain with no capacity refusal, want 0", n)
	}
}

// TestGatewayOutOfRangeRefusedEverywhere: an Enter or Leave names a
// junction, and a junction that does not exist is refused by every
// store in the words the partitioned one always used — before anything
// is indexed, counted, logged or checkpointed. A single store used to
// file such events under junctions no query could see (err nil, events
// counted); a partitioned system refused them. ★v_ext meets the
// gateways only, so a junction that exists but is no gateway is refused
// the same way, in core's words, on every surface: a single, a
// 4-partition and a durable system, served JSON and wire, a cell's
// numbered ingest, and a router.
func TestGatewayOutOfRangeRefusedEverywhere(t *testing.T) {
	plain, err := NewGridCitySystem(GridOpts{NX: 6, NY: 6, Spacing: 50, Jitter: 0.2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	w := plain.World()
	// inputs are the junctions no world event may name in world w: three
	// out of range, then the first junction that is no gateway.
	inputs := func(w *roadnet.World) []NodeID {
		for j := 0; j < w.NumJunctions(); j++ {
			if !w.IsGateway(NodeID(j)) {
				return []NodeID{NodeID(w.NumJunctions()), 1_000_000, -5, NodeID(j)}
			}
		}
		t.Fatal("every junction is a gateway")
		return nil
	}
	// want is the store's refusal of event i naming junction g.
	want := func(w *roadnet.World, i int, g NodeID) string {
		if g < 0 || int(g) >= w.NumJunctions() {
			return fmt.Sprintf("core: batch event %d: gateway %d out of range", i, g)
		}
		return fmt.Sprintf("core: batch event %d: junction %d is not a gateway", i, g)
	}
	refused := func(t *testing.T, what string, sys *System) {
		t.Helper()
		w := sys.World()
		for _, g := range inputs(w) {
			for _, batch := range [][]Event{
				{EnterEvent(g, 10)},
				{EnterEvent(w.Gateways[0], 10), LeaveEvent(g, 11)},
			} {
				before := sys.NumEvents()
				err := sys.RecordBatch(batch)
				if want := want(w, len(batch)-1, g); err == nil || err.Error() != want {
					t.Errorf("%s, gateway %d: err %v, want %q", what, g, err, want)
				}
				if got := sys.NumEvents(); got != before {
					t.Errorf("%s, gateway %d: NumEvents %d → %d across a refused batch", what, g, before, got)
				}
			}
		}
	}

	refused(t, "single store", plain)
	parted, err := NewPartitionedSystem(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	refused(t, "partitioned", parted)

	dir := t.TempDir()
	durable, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.RecordEnter(w.Gateways[0], 1); err != nil {
		t.Fatal(err)
	}
	refused(t, "durable", durable)
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatalf("reopening after the refusals: %v", err)
	}
	defer reopened.Close()
	if n := reopened.NumEvents(); n != 1 {
		t.Fatalf("reopened with %d events, want the one accepted Enter", n)
	}
	refused(t, "durable, reopened", reopened)

	served := NewSystem(w)
	srv := NewServer(served, ServerConfig{})
	defer srv.Drain()
	for name, sf := range surfaces() {
		for _, g := range inputs(w) {
			body := sf.ingest(EnterEvent(g, 10))
			if name == "json" {
				body, _ = json.Marshal(IngestRequest{Events: []IngestEvent{{Kind: "enter", T: 10, Gateway: int(g)}}})
			}
			want := want(w, 0, g)
			if name == "wire" && g < 0 {
				// The frame spells a gateway as an unsigned varint: a
				// negative one does not survive decoding, let alone reach
				// the store.
				want = "bad gateway"
			}
			sf.refused(t, fmt.Sprintf("%s POST /v1/ingest, gateway %d", name, g), sf.send(srv, http.MethodPost, "/v1/ingest", body), http.StatusBadRequest, want)
		}
	}
	if n := served.NumEvents(); n != 0 {
		t.Fatalf("served system counts %d events after refusals only", n)
	}

	// A cluster: the router refuses in core's words before any cell is
	// asked, and a cell refuses a numbered apply naming a junction that
	// is no gateway in the same words, whichever cell it reaches.
	tc := bootTestCluster(t, 2, false)
	refused(t, "router", tc.sys)
	interior := inputs(tc.world)[3]
	body, _ := json.Marshal(IngestRequest{Events: []IngestEvent{{Kind: "enter", T: 10, Gateway: int(interior)}}})
	for p := range tc.cells {
		resp, err := http.Post("http://"+tc.addrs[p]+"/v1/ingest?seq=7", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := want(tc.world, 0, interior); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
			t.Errorf("cell %d numbered ingest at junction %d: HTTP %d %s, want 400 saying %q", p, interior, resp.StatusCode, msg, want)
		}
		if n := tc.cells[p].NumEvents(); n != 0 {
			t.Errorf("cell %d holds %d events after refusals only", p, n)
		}
	}
}
