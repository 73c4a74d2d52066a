package stq

// The network serving layer (DESIGN.md §13): an HTTP/JSON boundary over
// System for the in-network deployment the paper assumes. Command stqd
// wraps a Server in an http.Server; cmd/stqload drives it under load.
//
// The serving layer adds four things the embedded library does not
// need:
//
//   - admission control: a bounded concurrency gate with a bounded
//     waiting room; requests beyond both get 429 immediately instead of
//     queueing without bound;
//   - coalescing: identical in-flight queries (singleflight keyed on
//     the compiled-plan identity, so the coalescer and the plan cache
//     agree on request equality) execute once and share the leader's
//     exact response bytes;
//   - ingest group commit: concurrent ingest requests queued at the
//     same moment are combined into one RecordBatch (one stripe-lock
//     acquisition set, one WAL append on durable systems); a combined
//     batch that fails validation falls back to per-request application
//     so every client gets its own verdict;
//   - graceful drain: Drain refuses new work, flushes queued ingest,
//     waits for background seals, and writes a final checkpoint on
//     durable systems.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/wire"
)

// Serving-layer observability metrics (internal/obs).
var (
	srvRequests     = obs.Default.Counter("serve.requests")
	srvRejected     = obs.Default.Counter("serve.rejected")
	srvBadRequests  = obs.Default.Counter("serve.bad_requests")
	srvQueryExecs   = obs.Default.Counter("serve.query_execs")
	srvCoalesced    = obs.Default.Counter("serve.coalesced_queries")
	srvGroupCommits = obs.Default.Counter("serve.ingest_group_commits")
	srvIngestEvents = obs.Default.Counter("serve.ingest_events")
	srvWireRequests = obs.Default.Counter("serve.wire_requests")
	srvLatency      = obs.Default.Histogram("serve.request_seconds", obs.LatencyBuckets)
)

// WireContentType is the media type selecting the compact binary wire
// protocol (internal/wire, DESIGN.md §15) on /v1/query and /v1/ingest.
// Requests carrying it are decoded as wire frames and answered with
// wire frames; everything else stays on the default JSON surface,
// whose bytes are unchanged by the negotiation.
const WireContentType = wire.ContentType

// maxBodyBytes bounds a request body on both surfaces.
const maxBodyBytes = 8 << 20

// isWireRequest reports whether r selected the binary wire protocol.
func isWireRequest(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType)
}

// ServerConfig configures NewServer. Zero values select the defaults.
type ServerConfig struct {
	// MaxInflight bounds how many admitted query/ingest requests
	// execute concurrently (default 4×GOMAXPROCS).
	MaxInflight int
	// MaxQueued bounds the admission waiting room. A request arriving
	// with MaxInflight executing and MaxQueued waiting is refused with
	// 429 (default 4×MaxInflight).
	MaxQueued int
	// MaxBatchEvents caps how many events one ingest group commit
	// combines (default 8192).
	MaxBatchEvents int
	// Cell, when non-nil, puts the server in cluster cell mode
	// (DESIGN.md §16): it serves one spatial partition behind a router,
	// exposes the wire-native /v1/cell endpoint (handshake + scatter
	// ops), and refuses ingest of events its partition does not own.
	Cell *CellConfig
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 4 * c.MaxInflight
	}
	if c.MaxBatchEvents <= 0 {
		c.MaxBatchEvents = 8192
	}
	return c
}

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
	q := Query{
		Rect: Rect{Min: Point{X: r.Rect[0], Y: r.Rect[1]}, Max: Point{X: r.Rect[2], Y: r.Rect[3]}},
		T1:   r.T1, T2: r.T2,
	}
	switch r.Kind {
	case "", "snapshot":
		q.Kind = Snapshot
	case "static":
		q.Kind = Static
	case "transient":
		q.Kind = Transient
	default:
		return Query{}, fmt.Errorf("unknown query kind %q", r.Kind)
	}
	switch r.Bound {
	case "", "lower":
		q.Bound = Lower
	case "upper":
		q.Bound = Upper
	default:
		return Query{}, fmt.Errorf("unknown bound %q", r.Bound)
	}
	return q, nil
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

// IngestEvent is one event of POST /v1/ingest.
type IngestEvent struct {
	// Kind is "move", "enter", or "leave".
	Kind string  `json:"kind"`
	T    float64 `json:"t"`
	// Road and From describe a move (the object traverses Road starting
	// at junction From).
	Road int `json:"road,omitempty"`
	From int `json:"from,omitempty"`
	// Gateway is the world junction of an enter/leave.
	Gateway int `json:"gateway,omitempty"`
}

// IngestRequest is the JSON body of POST /v1/ingest.
type IngestRequest struct {
	Events []IngestEvent `json:"events"`
}

// IngestResult is the JSON body of a successful /v1/ingest response.
type IngestResult struct {
	Ingested int `json:"ingested"`
}

// ServerStats is a point-in-time copy of the serving counters
// (Server.Stats, GET /v1/stats). Counters advance regardless of the
// observability gate, so load harnesses and tests can always read them.
type ServerStats struct {
	// Requests counts every request reaching the handler, Rejected the
	// 429 admission refusals, BadRequests the 400s.
	Requests, Rejected, BadRequests uint64
	// QueryExecs counts engine executions; Coalesced counts query
	// requests answered from another request's in-flight execution.
	// QueryExecs + Coalesced = accepted query requests.
	QueryExecs, Coalesced uint64
	// IngestRequests and IngestEvents count accepted ingestion;
	// GroupCommits counts RecordBatch calls issued by the batcher, and
	// GroupedRequests how many requests rode a multi-request commit.
	IngestRequests, IngestEvents, GroupCommits, GroupedRequests uint64
}

// Server is the HTTP/JSON serving layer over one System. It implements
// http.Handler; construct with NewServer, serve with an http.Server,
// and call Drain after http.Server.Shutdown returns.
//
// Endpoints: POST /v1/query, POST /v1/ingest, POST /v1/checkpoint,
// GET /v1/stats, GET /metrics (Prometheus), GET /metrics.json,
// GET /healthz, GET /readyz, and — in cluster cell mode
// (ServerConfig.Cell) — POST /v1/cell.
type Server struct {
	sys *System
	cfg ServerConfig
	mux *http.ServeMux

	// sem is the admission gate (capacity MaxInflight); waiters counts
	// requests blocked on it, bounded by MaxQueued.
	sem     chan struct{}
	waiters atomic.Int64

	flight flightGroup

	// ingestCh feeds the group-commit batcher. Capacity covers every
	// request admission lets through, so enqueue never blocks.
	ingestCh  chan ingestReq
	stop      chan struct{}
	batcherWG sync.WaitGroup

	// drainMu serializes ingest enqueues against Drain's transition to
	// the draining state: handlers enqueue under RLock after re-checking
	// draining, and Drain flips the flag under Lock, so once Drain holds
	// the write lock no handler can slip a request past the final flush.
	drainMu   sync.RWMutex
	draining  atomic.Bool
	drainOnce sync.Once
	drainErr  error

	// notReady inverts the /readyz readiness signal (zero value =
	// ready), so servers are born ready without an initializer.
	notReady atomic.Bool

	// queryFn is the engine entry point; tests substitute it to control
	// timing. Defaults to sys.Query.
	queryFn func(Query) (*Response, error)

	requests, rejected, badRequests atomic.Uint64
	queryExecs, coalesced           atomic.Uint64
	ingestRequests, ingestEvents    atomic.Uint64
	groupCommits, groupedRequests   atomic.Uint64
}

// NewServer builds the serving layer over sys and starts its ingest
// batcher. The caller owns sys's configuration (placement, privacy,
// ordering); multi-client ingestion normally wants
// sys.SetIngestOrdering(OrderPerEdge).
func NewServer(sys *System, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sys:      sys,
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxInflight),
		ingestCh: make(chan ingestReq, cfg.MaxInflight+cfg.MaxQueued),
		stop:     make(chan struct{}),
	}
	s.queryFn = sys.Query
	s.flight.m = make(map[flightKey]*flightCall)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	if cfg.Cell != nil {
		s.mux.HandleFunc("/v1/cell", s.handleCell)
	}
	s.batcherWG.Add(1)
	go s.runBatcher()
	return s
}

// System returns the served system.
func (s *Server) System() *System { return s.sys }

// Stats copies the serving counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:        s.requests.Load(),
		Rejected:        s.rejected.Load(),
		BadRequests:     s.badRequests.Load(),
		QueryExecs:      s.queryExecs.Load(),
		Coalesced:       s.coalesced.Load(),
		IngestRequests:  s.ingestRequests.Load(),
		IngestEvents:    s.ingestEvents.Load(),
		GroupCommits:    s.groupCommits.Load(),
		GroupedRequests: s.groupedRequests.Load(),
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	srvRequests.Inc()
	if s.draining.Load() {
		// Health and introspection stay readable through a drain so
		// operators can watch it finish.
		switch r.URL.Path {
		case "/metrics", "/metrics.json", "/healthz", "/readyz", "/v1/stats":
		default:
			errorFor(w, r, http.StatusServiceUnavailable, "server draining")
			srvLatency.Observe(time.Since(start).Seconds())
			return
		}
	}
	s.mux.ServeHTTP(w, r)
	srvLatency.Observe(time.Since(start).Seconds())
}

// refuseFunc writes an error response in the format the endpoint
// speaks: errorFor on the public endpoints, wire-only on /v1/cell.
type refuseFunc func(w http.ResponseWriter, r *http.Request, status int, msg string)

// admit passes the request through the bounded-concurrency gate. On
// ok=true the caller must invoke release. On ok=false the request has
// already been answered through refuse: 429 when the waiting room is
// full — the only outcome that counts as a capacity rejection — and 503
// when Drain closed the gate, or the client gave up, while it waited.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, refuse refuseFunc) (release func(), ok bool) {
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, true
	default:
	}
	if s.waiters.Add(1) > int64(s.cfg.MaxQueued) {
		s.waiters.Add(-1)
		s.reject(w, r, refuse)
		return nil, false
	}
	defer s.waiters.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return release, true
	case <-s.stop:
		refuse(w, r, http.StatusServiceUnavailable, "server draining")
	case <-r.Context().Done():
		refuse(w, r, http.StatusServiceUnavailable, "request cancelled while queued")
	}
	return nil, false
}

func (s *Server) reject(w http.ResponseWriter, r *http.Request, refuse refuseFunc) {
	s.rejected.Add(1)
	srvRejected.Inc()
	w.Header().Set("Retry-After", "1")
	refuse(w, r, http.StatusTooManyRequests, "server at capacity")
}

func (s *Server) badRequest(w http.ResponseWriter, r *http.Request, err error) {
	s.badRequests.Add(1)
	srvBadRequests.Inc()
	errorFor(w, r, http.StatusBadRequest, err.Error())
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		errorFor(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	release, ok := s.admit(w, r, errorFor)
	if !ok {
		return
	}
	defer release()
	wireReq := isWireRequest(r)
	var q Query
	if wireReq {
		srvWireRequests.Inc()
		var err error
		if q, err = decodeWireQuery(r); err != nil {
			s.badRequest(w, r, err)
			return
		}
	} else {
		var req QueryRequest
		if err := decodeJSON(r, &req); err != nil {
			s.badRequest(w, r, err)
			return
		}
		var err error
		if q, err = req.toQuery(); err != nil {
			s.badRequest(w, r, err)
			return
		}
	}
	// The flight key carries the response format: a wire client and a
	// JSON client asking the same question share one engine execution at
	// most per format, never one body — the coalescer hands out the
	// leader's exact bytes, and those are format-specific.
	status, body, shared := s.flight.do(flightKey{key: coalesceKeyOf(q), wire: wireReq}, func() (int, []byte) {
		s.queryExecs.Add(1)
		srvQueryExecs.Inc()
		resp, err := s.queryFn(q)
		if wireReq {
			if err != nil {
				st := queryErrorStatus(err)
				return st, wire.MarshalError(st, err.Error())
			}
			return http.StatusOK, wire.MarshalResult(resultFrameOf(resp))
		}
		if err != nil {
			return queryErrorStatus(err), errorBody(err)
		}
		b, merr := json.Marshal(resultOf(resp))
		if merr != nil {
			return http.StatusInternalServerError, errorBody(merr)
		}
		return http.StatusOK, b
	})
	if shared {
		s.coalesced.Add(1)
		srvCoalesced.Inc()
	}
	if wireReq {
		writeWireBytes(w, status, body)
	} else {
		writeJSONBytes(w, status, body)
	}
}

// decodeWireQuery reads one KindQuery frame from the request body and
// maps it onto an engine Query.
func decodeWireQuery(r *http.Request) (Query, error) {
	d := wire.GetDecoder()
	defer wire.PutDecoder(d)
	kind, payload, err := d.ReadFrame(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		return Query{}, err
	}
	if kind != wire.KindQuery {
		return Query{}, fmt.Errorf("wire: expected query frame, got kind %d", kind)
	}
	qf, err := wire.DecodeQuery(payload)
	if err != nil {
		return Query{}, err
	}
	return queryOfFrame(qf)
}

// queryOfFrame maps the pinned wire enums onto the engine's; unknown
// values are a client error, not a silent default.
func queryOfFrame(f wire.QueryFrame) (Query, error) {
	q := Query{
		Rect: Rect{Min: Point{X: f.Rect[0], Y: f.Rect[1]}, Max: Point{X: f.Rect[2], Y: f.Rect[3]}},
		T1:   f.T1, T2: f.T2,
	}
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

// queryErrorStatus maps engine/privacy errors to HTTP statuses: an
// exhausted ε budget is 429 (the resource is the budget), a request
// the engine rejected as malformed (ErrInvalidQuery) is 400, and
// anything else — engine faults, internal invariant failures — is a
// 500. Blaming the client for server-side failures would mislead
// operators and suppress retries.
func queryErrorStatus(err error) int {
	if errors.Is(err, ErrPrivacyBudgetExhausted) {
		return http.StatusTooManyRequests
	}
	if errors.Is(err, ErrInvalidQuery) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func resultOf(resp *Response) QueryResult {
	return QueryResult{
		Count:         resp.Count,
		Missed:        resp.Missed,
		RegionFaces:   resp.RegionFaces,
		NodesAccessed: resp.NodesAccessed,
		Messages:      resp.Messages,
		Hops:          resp.Hops,
		TotalHops:     resp.TotalHops,
		EdgesAccessed: resp.EdgesAccessed,
		Degradation:   resp.Degradation,
	}
}

// resultFrameOf is resultOf for the binary surface.
func resultFrameOf(resp *Response) wire.ResultFrame {
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
			DeadPerimeterSensors: d.DeadPerimeterSensors,
			UnobservedCuts:       d.UnobservedCuts,
			ReroutedLegs:         d.ReroutedLegs,
			Lower:                d.Lower,
			Upper:                d.Upper,
			Retries:              d.Retries,
			Drops:                d.Drops,
			FailedNodes:          d.FailedNodes,
		}
	}
	return f
}

// ingestReq is one client batch queued for group commit.
type ingestReq struct {
	events []Event
	done   chan error
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		errorFor(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	release, ok := s.admit(w, r, errorFor)
	if !ok {
		return
	}
	defer release()
	wireReq := isWireRequest(r)
	var events []Event
	if wireReq {
		srvWireRequests.Inc()
		d := wire.GetDecoder()
		// The decoded events live in the decoder's pooled scratch; the
		// group-commit batcher is done reading them once <-done below
		// fires, which precedes every return after the enqueue, so the
		// deferred release never races the batcher.
		defer wire.PutDecoder(d)
		var err error
		if events, err = decodeWireIngest(d, r); err != nil {
			s.badRequest(w, r, err)
			return
		}
	} else {
		var req IngestRequest
		if err := decodeJSON(r, &req); err != nil {
			s.badRequest(w, r, err)
			return
		}
		events = make([]Event, len(req.Events))
		for i, we := range req.Events {
			ev, err := we.toEvent()
			if err != nil {
				s.badRequest(w, r, fmt.Errorf("event %d: %w", i, err))
				return
			}
			events[i] = ev
		}
	}
	if len(events) == 0 {
		s.badRequest(w, r, fmt.Errorf("empty event batch"))
		return
	}
	// A cell owns exactly one spatial partition: events the layout
	// assigns elsewhere are a routing bug (or a client bypassing the
	// router) and are refused before they can corrupt the cell's forms.
	if cc := s.cfg.Cell; cc != nil {
		if err := cc.checkOwnership(events); err != nil {
			s.badRequest(w, r, err)
			return
		}
	}
	done := make(chan error, 1)
	// Enqueue under drainMu.RLock with a re-check of draining: a handler
	// that passed the top-level drain check before Drain flipped the flag
	// must not enqueue after Drain's final flush — nothing would ever
	// answer its done channel. Under the read lock the flag is stable, so
	// either we observe draining and refuse, or our request is enqueued
	// before Drain can flip the flag and is seen by the final flush.
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		errorFor(w, r, http.StatusServiceUnavailable, "server draining")
		return
	}
	select {
	case s.ingestCh <- ingestReq{events: events, done: done}:
		s.drainMu.RUnlock()
	default:
		// Admission bounds concurrent ingest below the channel capacity,
		// so this is only reachable if the batcher has stopped.
		s.drainMu.RUnlock()
		s.reject(w, r, errorFor)
		return
	}
	if err := <-done; err != nil {
		// A dead cluster cell is the server's problem, not the client's:
		// the batch was not applied anywhere and a later retry can
		// succeed, so answer 503, never 400.
		if errors.Is(err, ErrClusterUnavailable) {
			errorFor(w, r, http.StatusServiceUnavailable, err.Error())
			return
		}
		// So is a write-ahead log that cannot take the append; the batch
		// is live in memory, so the client must not send it again.
		if errors.Is(err, ErrNotDurable) {
			errorFor(w, r, http.StatusInternalServerError, err.Error())
			return
		}
		s.badRequest(w, r, err)
		return
	}
	s.ingestRequests.Add(1)
	s.ingestEvents.Add(uint64(len(events)))
	srvIngestEvents.AddInt(len(events))
	if wireReq {
		enc := wire.GetEncoder()
		writeWireBytes(w, http.StatusOK, enc.EncodeIngestResult(len(events)))
		wire.PutEncoder(enc)
		return
	}
	writeJSON(w, http.StatusOK, IngestResult{Ingested: len(events)})
}

// decodeWireIngest reads one KindIngest frame from the request body and
// decodes it straight into the decoder's pooled event scratch — no
// JSON-shaped intermediate slice, one copy from socket to RecordBatch.
func decodeWireIngest(d *wire.Decoder, r *http.Request) ([]Event, error) {
	kind, payload, err := d.ReadFrame(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if kind != wire.KindIngest {
		return nil, fmt.Errorf("wire: expected ingest frame, got kind %d", kind)
	}
	return d.DecodeIngest(payload)
}

func (e IngestEvent) toEvent() (Event, error) {
	switch e.Kind {
	case "move":
		return MoveEvent(EdgeID(e.Road), NodeID(e.From), e.T), nil
	case "enter":
		return EnterEvent(NodeID(e.Gateway), e.T), nil
	case "leave":
		return LeaveEvent(NodeID(e.Gateway), e.T), nil
	}
	return Event{}, fmt.Errorf("unknown event kind %q", e.Kind)
}

// runBatcher is the ingest group-commit loop: it blocks for one queued
// request, greedily drains whatever else is already queued (up to
// MaxBatchEvents), and commits the group. On stop it flushes the queue
// and exits.
func (s *Server) runBatcher() {
	defer s.batcherWG.Done()
	for {
		var first ingestReq
		select {
		case first = <-s.ingestCh:
		case <-s.stop:
			s.flushIngest()
			return
		}
		pending := []ingestReq{first}
		total := len(first.events)
	drain:
		for total < s.cfg.MaxBatchEvents {
			select {
			case next := <-s.ingestCh:
				pending = append(pending, next)
				total += len(next.events)
			default:
				break drain
			}
		}
		s.commit(pending, total)
	}
}

// flushIngest commits everything still queued at drain time, one
// request at a time.
func (s *Server) flushIngest() {
	for {
		select {
		case req := <-s.ingestCh:
			req.done <- s.sys.RecordBatch(req.events)
		default:
			return
		}
	}
}

// commit applies one group. Multi-request groups are combined into a
// single RecordBatch — one stripe-lock acquisition set and, on durable
// systems, one WAL append for the whole group. RecordBatch validates
// before applying anything, so a combined batch that fails (e.g. two
// clients' streams interleave non-monotonically on a shared edge)
// applied nothing; fall back to per-request application so each client
// gets its own verdict. The one failure that comes after the apply is
// ErrNotDurable: the whole group is live in memory, running it again
// would apply it twice, and every request gets that verdict.
func (s *Server) commit(pending []ingestReq, total int) {
	s.groupCommits.Add(1)
	srvGroupCommits.Inc()
	if len(pending) == 1 {
		pending[0].done <- s.sys.RecordBatch(pending[0].events)
		return
	}
	s.groupedRequests.Add(uint64(len(pending)))
	combined := make([]Event, 0, total)
	for _, p := range pending {
		combined = append(combined, p.events...)
	}
	if err := s.sys.RecordBatch(combined); err == nil || errors.Is(err, ErrNotDurable) {
		for _, p := range pending {
			p.done <- err
		}
		return
	}
	for _, p := range pending {
		p.done <- s.sys.RecordBatch(p.events)
	}
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.sys.Durable() {
		httpError(w, http.StatusConflict, "system is not durable (OpenDurable)")
		return
	}
	if err := s.sys.Checkpoint(); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"checkpointed": true})
}

// statsBody is the GET /v1/stats response.
type statsBody struct {
	ServerStats
	ServingEpoch uint64         `json:"serving_epoch"`
	PlanCache    PlanCacheStats `json:"plan_cache"`
	Durable      bool           `json:"durable"`
	Draining     bool           `json:"draining"`
	// Partitions is the spatial partition count (1 for single-store).
	Partitions int `json:"partitions"`
	// Request-latency quantiles in milliseconds, from the
	// serve.request_seconds histogram; zero unless observability is on.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body := statsBody{
		ServerStats:  s.Stats(),
		ServingEpoch: s.sys.ServingEpoch(),
		PlanCache:    s.sys.PlanCacheStats(),
		Durable:      s.sys.Durable(),
		Draining:     s.draining.Load(),
		Partitions:   s.sys.NumPartitions(),
	}
	if h, ok := obs.Default.Snapshot().Histograms[srvLatency.Name()]; ok {
		body.P50Ms = h.Quantile(0.50) * 1e3
		body.P95Ms = h.Quantile(0.95) * 1e3
		body.P99Ms = h.Quantile(0.99) * 1e3
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteMetrics(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = WriteMetricsJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// SetReady flips the /readyz readiness signal. Servers start ready;
// boot shims hold readiness down until recovery completes, and
// operators can pull a server out of rotation without draining it.
// Draining always reports not ready regardless of this flag.
func (s *Server) SetReady(ok bool) { s.notReady.Store(!ok) }

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.notReady.Load() {
		httpError(w, http.StatusServiceUnavailable, "not ready")
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
}

// Drain shuts the serving layer down in dependency order: refuse new
// work (503), stop the batcher and flush queued ingest group commits,
// wait for in-flight background history seals, and — when the system is
// durable — write a final checkpoint so recovery does not replay the
// whole log. Call it after http.Server.Shutdown returns (Shutdown
// stops the listeners and waits for in-flight handlers, which is what
// lets queued ingest finish cleanly). Idempotent; later calls return
// the first result.
func (s *Server) Drain() error {
	s.drainOnce.Do(func() {
		// Flip the flag under drainMu so no ingest handler is mid-enqueue:
		// after Unlock, every handler either already enqueued (visible to
		// the flush below) or will observe draining and refuse with 503.
		s.drainMu.Lock()
		s.draining.Store(true)
		s.drainMu.Unlock()
		close(s.stop)
		s.batcherWG.Wait()
		// Catch stragglers that enqueued between the batcher's final
		// flush and now.
		s.flushIngest()
		s.sys.WaitHistorySeals()
		if s.sys.Durable() {
			s.drainErr = s.sys.Checkpoint()
		}
	})
	return s.drainErr
}

// coalesceKeyOf maps a Query onto the plan cache's canonical identity
// extended with times and kind (query.CoalesceKeyOf), so the coalescer
// and the plan cache agree on which requests are interchangeable.
func coalesceKeyOf(q Query) query.CoalesceKey {
	return query.CoalesceKeyOf(query.Request{
		Rect: q.Rect, T1: q.T1, T2: q.T2, Kind: q.Kind, Bound: q.Bound,
	})
}

// flightCall is one in-flight coalesced execution.
type flightCall struct {
	done    chan struct{}
	status  int
	body    []byte
	waiters atomic.Int64
}

// flightKey identifies an in-flight execution: the compiled-plan
// coalescing identity plus the response format. The format bit keeps a
// JSON follower from receiving a wire leader's binary bytes (and vice
// versa) — coalescing shares bodies, and bodies are format-specific.
type flightKey struct {
	key  query.CoalesceKey
	wire bool
}

// flightGroup implements singleflight over coalescing keys: the first
// caller for a key becomes the leader and executes fn; callers arriving
// while the leader runs block and then share the leader's exact
// response bytes — byte-identical bodies, one engine execution.
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flightCall
}

func (g *flightGroup) do(k flightKey, fn func() (int, []byte)) (status int, body []byte, shared bool) {
	g.mu.Lock()
	if c, ok := g.m[k]; ok {
		c.waiters.Add(1)
		g.mu.Unlock()
		<-c.done
		if c.status == http.StatusOK {
			return c.status, c.body, true
		}
		// The leader failed. Failures are not interchangeable the way
		// successful answers are — the leader may have lost a transient
		// race (privacy budget, concurrent reconfiguration) the follower
		// would win — so sharing them would amplify one failure to every
		// coalesced client. Each follower executes on its own instead.
		status, body = fn()
		return status, body, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[k] = c
	g.mu.Unlock()
	c.status, c.body = fn()
	g.mu.Lock()
	delete(g.m, k)
	g.mu.Unlock()
	close(c.done)
	return c.status, c.body, false
}

// pendingWaiters reports how many followers are blocked on key k's
// in-flight JSON execution. Test-only seam for deterministic coalescing
// tests.
func (g *flightGroup) pendingWaiters(k query.CoalesceKey) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[flightKey{key: k}]; ok {
		return c.waiters.Load()
	}
	return 0
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
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

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSONBytes(w, status, errorBody(errors.New(msg)))
}

// errorFor writes an error response on the surface the request
// selected: JSON by default, a wire error frame for wire requests — a
// binary client must never have to parse JSON to learn it was refused.
func errorFor(w http.ResponseWriter, r *http.Request, status int, msg string) {
	if isWireRequest(r) {
		writeWireBytes(w, status, wire.MarshalError(status, msg))
		return
	}
	httpError(w, status, msg)
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

// jsonBufPool recycles response marshal buffers across requests; the
// buffer is released once writeJSONBytes has copied it to the socket.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		writeJSONBytes(w, http.StatusInternalServerError, errorBody(err))
		return
	}
	// json.Encoder output is json.Marshal output plus one trailing
	// newline (identical escaping); trim it so the response bytes stay
	// exactly what the unpooled json.Marshal path produced.
	b := buf.Bytes()
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	writeJSONBytes(w, status, b)
	jsonBufPool.Put(buf)
}

func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeWireBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
