package stq

// The network serving layer (DESIGN.md §13): an HTTP boundary over
// System for the in-network deployment the paper assumes, speaking JSON
// or the binary wire protocol through one codec seam (serve_codec.go).
// Commands stqd and stqrouter wrap a Server in an http.Server
// (cmd/internal/daemon); cmd/stqload drives it under load.
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
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
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

// maxBodyBytes bounds a request body on both codecs.
const maxBodyBytes = 8 << 20

// codecOf picks the request's codec from its Content-Type — the one
// place the serving layer asks which spelling a request uses.
func codecOf(r *http.Request) codec {
	if strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType) {
		return wireCodec{}
	}
	return jsonCodec{}
}

// body bounds the request body; reading past the bound fails with
// *http.MaxBytesError, which statusOf answers 413.
func body(r *http.Request) io.Reader { return http.MaxBytesReader(nil, r.Body, maxBodyBytes) }

// ServerConfig configures NewServer. Zero values select the defaults.
type ServerConfig struct {
	// MaxInflight bounds how many admitted query/ingest requests
	// execute concurrently (default 4×GOMAXPROCS).
	MaxInflight int
	// MaxQueued bounds the admission waiting room. A request arriving
	// with MaxInflight executing and MaxQueued waiting is refused with
	// 429 (default 4×MaxInflight).
	MaxQueued int
	// Cell, when non-nil, puts the server in cluster cell mode
	// (DESIGN.md §16): it serves one spatial partition behind a router,
	// exposes the wire-native /v1/cell endpoint (handshake + scatter
	// ops), and refuses ingest of events its partition does not own. A
	// cell answers scatter ops from its one store, so NewServer panics
	// when handed a cell config over a partitioned or cluster System.
	Cell *CellConfig
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 4 * c.MaxInflight
	}
	return c
}

// ServerStats is a point-in-time copy of the serving counters
// (Server.Stats, GET /v1/stats). Counters advance regardless of the
// observability gate, so load harnesses and tests can always read them.
type ServerStats struct {
	// Requests counts every request reaching the handler, Rejected the
	// 429 admission refusals, BadRequests the 400s and 413s.
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

// Server is the HTTP serving layer over one System. It implements
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
	// cell is the one store a cell-mode server answers scatter ops from;
	// nil outside cell mode.
	cell *core.Store
	// greeted records a router handshake since this cell-mode server
	// started: until then it takes no write (errNotFromRouter).
	greeted atomic.Bool

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
// batcher. The caller owns sys's configuration (placement, privacy).
// Ingestion checks time order per sensing-edge direction, so clients may
// ingest independently clocked streams.
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
		if sys.store == nil {
			panic("stq: cell mode needs a single-store System")
		}
		s.cell = sys.store
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
			refuse(w, codecOf(r), http.StatusServiceUnavailable, "server draining")
			srvLatency.Observe(time.Since(start).Seconds())
			return
		}
	}
	s.mux.ServeHTTP(w, r)
	srvLatency.Observe(time.Since(start).Seconds())
}

// admit checks the method and passes the request through the
// bounded-concurrency gate. On ok=true the caller must invoke release.
// On ok=false the request has already been answered in codec c: 405 for
// anything but POST, 429 when the waiting room is full — the only
// outcome that counts as a capacity rejection — and 503 when Drain
// closed the gate, or the client gave up, while it waited.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, c codec) (release func(), ok bool) {
	if r.Method != http.MethodPost {
		refuse(w, c, http.StatusMethodNotAllowed, "POST required")
		return nil, false
	}
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, true
	default:
	}
	if s.waiters.Add(1) > int64(s.cfg.MaxQueued) {
		s.waiters.Add(-1)
		s.reject(w, c)
		return nil, false
	}
	defer s.waiters.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return release, true
	case <-s.stop:
		refuse(w, c, http.StatusServiceUnavailable, "server draining")
	case <-r.Context().Done():
		refuse(w, c, http.StatusServiceUnavailable, "request cancelled while queued")
	}
	return nil, false
}

func (s *Server) reject(w http.ResponseWriter, c codec) {
	s.rejected.Add(1)
	srvRejected.Inc()
	w.Header().Set("Retry-After", "1")
	refuse(w, c, http.StatusTooManyRequests, "server at capacity")
}

// statusOf is the one error → HTTP status table of the serving layer.
// fallback is the status of an error the table does not name: 400 where
// the client supplied what failed (a body, a batch), 500 where the
// engine did — blaming the client for server-side failures would
// mislead operators and suppress retries.
func statusOf(err error, fallback int) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrInvalidQuery):
		return http.StatusBadRequest
	case errors.Is(err, ErrPrivacyBudgetExhausted):
		// The exhausted resource is the ε budget.
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClusterUnavailable), errors.Is(err, errClosed):
		// A dead cluster cell or a closed system is the server's problem.
		// The batch was not applied anywhere — unless the message says it
		// is committed: a cell did not confirm its share, the router
		// completes it when the cell rejoins, and a resend counts twice.
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotDurable):
		// So is a write-ahead log that cannot take the append; nothing
		// was applied, so the batch may be sent again.
		return http.StatusInternalServerError
	case errors.Is(err, errNotFromRouter):
		return http.StatusConflict
	}
	return fallback
}

// fail answers a request err stopped, in codec c, with statusOf's
// status. A 400 or 413 is the client's doing and counts as a bad
// request.
func (s *Server) fail(w http.ResponseWriter, c codec, err error, fallback int) {
	status := statusOf(err, fallback)
	if status == http.StatusBadRequest || status == http.StatusRequestEntityTooLarge {
		s.badRequests.Add(1)
		srvBadRequests.Inc()
	}
	refuse(w, c, status, err.Error())
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	c := codecOf(r)
	release, ok := s.admit(w, r, c)
	if !ok {
		return
	}
	defer release()
	q, err := c.readQuery(body(r))
	if err != nil {
		s.fail(w, c, err, http.StatusBadRequest)
		return
	}
	// The flight key carries the codec: a wire client and a JSON client
	// asking the same question share one engine execution at most per
	// codec, never one body — the coalescer hands out the leader's exact
	// bytes, and those are codec-specific.
	status, out, shared := s.flight.do(flightKey{key: coalesceKeyOf(q), codec: c}, func() (int, []byte) {
		s.queryExecs.Add(1)
		srvQueryExecs.Inc()
		resp, err := s.queryFn(q)
		if err == nil {
			var b []byte
			if b, err = c.result(resp); err == nil {
				return http.StatusOK, b
			}
		}
		st := statusOf(err, http.StatusInternalServerError)
		return st, c.failure(st, err.Error())
	})
	if shared {
		s.coalesced.Add(1)
		srvCoalesced.Inc()
	}
	write(w, c, status, out)
}

// ingestReq is one client batch queued for group commit.
type ingestReq struct {
	events []Event
	done   chan error
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	c := codecOf(r)
	release, ok := s.admit(w, r, c)
	if !ok {
		return
	}
	defer release()
	if s.cfg.Cell != nil {
		s.ingestNumbered(w, r, c)
		return
	}
	events, free, err := c.readIngest(body(r))
	// The events may live in pooled scratch (either codec's decoder);
	// the group-commit batcher is done reading them once <-done below
	// fires, which precedes every return after the enqueue, so the
	// deferred free never races the batcher.
	defer free()
	if err == nil && len(events) == 0 {
		err = errEmptyBatch
	}
	if err != nil {
		s.fail(w, c, err, http.StatusBadRequest)
		return
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
		refuse(w, c, http.StatusServiceUnavailable, "server draining")
		return
	}
	select {
	case s.ingestCh <- ingestReq{events: events, done: done}:
		s.drainMu.RUnlock()
	default:
		// Admission bounds concurrent ingest below the channel capacity,
		// so this is only reachable if the batcher has stopped.
		s.drainMu.RUnlock()
		s.reject(w, c)
		return
	}
	if err := <-done; err != nil {
		s.fail(w, c, err, http.StatusBadRequest)
		return
	}
	s.ingestRequests.Add(1)
	s.ingestEvents.Add(uint64(len(events)))
	srvIngestEvents.AddInt(len(events))
	write(w, c, http.StatusOK, c.ingested(len(events)))
}

// maxBatchEvents caps how many events one ingest group commit combines.
const maxBatchEvents = 8192

// runBatcher is the ingest group-commit loop: it blocks for one queued
// request, greedily drains whatever else is already queued (up to
// maxBatchEvents), and commits the group. On stop it flushes the queue
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
		for total < maxBatchEvents {
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
// gets its own verdict. That includes ErrNotDurable: a durable system
// appends before it applies, so a group the log refused applied nothing.
// A router's group kept for a cell (partition.ErrParked) is committed, so
// every request in it gets that verdict and none is applied again.
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
	if err := s.sys.RecordBatch(combined); err == nil || errors.Is(err, partition.ErrParked) {
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
		refuse(w, jsonCodec{}, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.sys.Durable() {
		refuse(w, jsonCodec{}, http.StatusConflict, "system is not durable (OpenDurable)")
		return
	}
	if err := s.sys.Checkpoint(); err != nil {
		refuse(w, jsonCodec{}, http.StatusInternalServerError, err.Error())
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
		refuse(w, jsonCodec{}, http.StatusServiceUnavailable, "draining")
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
		refuse(w, jsonCodec{}, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.notReady.Load() {
		refuse(w, jsonCodec{}, http.StatusServiceUnavailable, "not ready")
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
// coalescing identity plus the response codec. The codec keeps a JSON
// follower from receiving a wire leader's binary bytes (and vice
// versa) — coalescing shares bodies, and bodies are codec-specific.
type flightKey struct {
	key   query.CoalesceKey
	codec codec
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
	if c, ok := g.m[flightKey{key: k, codec: jsonCodec{}}]; ok {
		return c.waiters.Load()
	}
	return 0
}

// jsonBufPool recycles response marshal buffers across requests; the
// buffer is released once write has copied it to the socket.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers the JSON-only endpoints (stats, health, checkpoint)
// through a pooled marshal buffer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		write(w, jsonCodec{}, http.StatusInternalServerError, errorBody(err))
		return
	}
	// json.Encoder output is json.Marshal output plus one trailing
	// newline (identical escaping); trim it so the response bytes stay
	// exactly what the unpooled json.Marshal path produced.
	b := buf.Bytes()
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	write(w, jsonCodec{}, status, b)
	jsonBufPool.Put(buf)
}

// refuse answers status with msg spelled in codec c.
func refuse(w http.ResponseWriter, c codec, status int, msg string) {
	write(w, c, status, c.failure(status, msg))
}

// write is the one response writer of the serving surface: every body
// leaves under the content type of the codec that encoded it, with its
// length — left to net/http, a body past its 2 KiB sniff buffer goes out
// chunked, in several writes.
func write(w http.ResponseWriter, c codec, status int, body []byte) {
	w.Header().Set("Content-Type", c.contentType())
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
