// Command stqload is the closed/open-loop load harness for stqd: it
// simulates many concurrent clients issuing spatiotemporal range
// queries and batch ingestion against the HTTP serving layer, measures
// per-query-kind latency through warmup and measurement phases, and
// exits non-zero when any request failed, a kind's p99 exceeds
// -p99-gate or throughput falls below -min-qps. It is the multi-client
// and live-deployment generator; the one-client benchmark/ harness is
// what tracks performance between commits.
//
// Modes:
//
//	closed  (default) N clients in a request loop — each sends, waits,
//	        sends again; offered load adapts to service rate.
//	open    arrivals follow a Poisson process at -rate regardless of
//	        completions (the "millions of independent users" shape);
//	        arrivals beyond the dispatch queue are counted as shed.
//
// Target selection:
//
//	-addr http://host:8080   drive an external stqd
//	-addr a:8080,b:8080      drive several equivalent targets (stqrouter
//	                         replicas, or cells under test): workers are
//	                         assigned round-robin, worker i driving
//	                         target i mod N for the whole run; stats are
//	                         read from the first target.
//	-addr ""                 (default) self-serve: build a seeded
//	                         system in-process, serve it on a loopback
//	                         listener started and stopped the way the
//	                         daemons do (cmd/internal/daemon), and drive
//	                         that — the hermetic end-to-end smoke make
//	                         check runs.
//
// Every request goes out through one post(path, contentType, body):
// -wire / -wire-frac choose, per request, whether the body is spelled
// as JSON or as a binary wire frame (DESIGN.md §13.1, §15).
//
// The query stream draws from a hot set of repeated rectangles with
// probability -dup (exercising the plan cache and in-flight
// coalescing) and fresh random rectangles otherwise. The ingest stream
// replays a pre-generated synthetic workload partitioned by sensing
// edge across workers, so concurrent clients never violate the
// per-edge ordering contract; each replay lap shifts timestamps past
// the previous one to keep per-edge monotonicity.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/cmd/internal/daemon"
	"repro/internal/mobility"
	"repro/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "", "target base URL(s), comma-separated for round-robin worker assignment (empty = self-serve in-process)")
		mode     = flag.String("mode", "closed", "load mode: closed | open")
		clients  = flag.Int("clients", 16, "worker pool size (closed-loop concurrency)")
		rate     = flag.Float64("rate", 2000, "open-loop arrival rate (requests/sec)")
		duration = flag.Duration("duration", 8*time.Second, "measurement phase length")
		warmup   = flag.Duration("warmup", 2*time.Second, "warmup phase length (unmeasured)")
		mix      = flag.String("mix", "snapshot=35,static=20,transient=35,ingest=10", "operation mix percentages")
		dup      = flag.Float64("dup", 0.5, "fraction of queries drawn from the hot rect set")
		seed     = flag.Int64("seed", 1, "load-generator seed")
		quick    = flag.Bool("quick", false, "small self-serve system and short phases (CI smoke)")
		useWire  = flag.Bool("wire", false, "send every request on the binary wire protocol")
		wireFrac = flag.Float64("wire-frac", 0, "fraction of requests on the binary wire protocol (mixed JSON/binary load)")
		out      = flag.String("out", "", "also write the report as JSON to this path")
		p99Gate  = flag.Float64("p99-gate", 100, "fail when any kind's p99 exceeds this (ms)")
		minQPS   = flag.Float64("min-qps", 1000, "fail below this measured throughput (req/s)")
		horizon  = flag.Float64("horizon", 86400, "time horizon of the target's pre-ingested data")
		objects  = flag.Int("objects", 200, "self-serve: pre-ingested workload objects")
		gridN    = flag.Int("grid", 12, "self-serve: city grid side")
		budget   = flag.Int("budget", 64, "self-serve: communication-sensor budget")
	)
	flag.Parse()
	cfg := loadConfig{
		addr: *addr, mode: *mode, clients: *clients, rate: *rate,
		duration: *duration, warmup: *warmup, dup: *dup, seed: *seed,
		out: *out, p99GateMs: *p99Gate, minQPS: *minQPS, horizon: *horizon,
		objects: *objects, gridN: *gridN, budget: *budget,
		wireFrac: *wireFrac,
	}
	if *useWire {
		cfg.wireFrac = 1
	}
	if cfg.wireFrac < 0 || cfg.wireFrac > 1 {
		fmt.Fprintln(os.Stderr, "stqload: -wire-frac must be in [0,1]")
		os.Exit(1)
	}
	if *quick {
		cfg.duration, cfg.warmup = 2*time.Second, 400*time.Millisecond
		cfg.clients = 8
		cfg.objects, cfg.gridN, cfg.budget = 80, 8, 32
		cfg.p99GateMs, cfg.minQPS = 250, 200
	}
	var err error
	cfg.mix, err = parseMix(*mix)
	if err == nil {
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stqload:", err)
		os.Exit(1)
	}
}

type loadConfig struct {
	addr      string
	mode      string
	clients   int
	rate      float64
	duration  time.Duration
	warmup    time.Duration
	mix       opMix
	dup       float64
	seed      int64
	out       string
	p99GateMs float64
	minQPS    float64
	horizon   float64
	objects   int
	gridN     int
	budget    int
	wireFrac  float64
}

// opMix holds cumulative operation-mix thresholds in [0,1]:
// r < snapshot → snapshot, r < static → static, r < transient →
// transient, else ingest.
type opMix struct{ snapshot, static, transient float64 }

func parseMix(s string) (opMix, error) {
	pct := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return opMix{}, fmt.Errorf("bad mix entry %q", part)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || v < 0 {
			return opMix{}, fmt.Errorf("bad mix weight %q", part)
		}
		switch kv[0] {
		case "snapshot", "static", "transient", "ingest":
			pct[kv[0]] = v
		default:
			return opMix{}, fmt.Errorf("unknown mix op %q", kv[0])
		}
	}
	total := pct["snapshot"] + pct["static"] + pct["transient"] + pct["ingest"]
	if total <= 0 {
		return opMix{}, fmt.Errorf("mix weights sum to zero")
	}
	m := opMix{
		snapshot:  pct["snapshot"] / total,
		static:    pct["static"] / total,
		transient: pct["transient"] / total,
	}
	m.static += m.snapshot
	m.transient += m.static
	return m, nil
}

func run(cfg loadConfig) error {
	var bases []string
	for _, a := range strings.Split(cfg.addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			bases = append(bases, strings.TrimRight(a, "/"))
		}
	}
	var shutdown func() error
	if len(bases) == 0 {
		base, sd, err := selfServe(cfg)
		if err != nil {
			return err
		}
		bases, shutdown = []string{base}, sd
		fmt.Printf("stqload: self-serving on %s (grid %dx%d, %d objects, budget %d)\n",
			base, cfg.gridN, cfg.gridN, cfg.objects, cfg.budget)
	}
	if len(bases) > 1 {
		fmt.Printf("stqload: %d targets, workers assigned round-robin\n", len(bases))
	}

	h := newHarness(cfg, bases)
	if err := h.prepare(); err != nil {
		return err
	}
	rep := h.drive()

	if shutdown != nil {
		if err := shutdown(); err != nil {
			return fmt.Errorf("self-serve shutdown: %w", err)
		}
	}
	return emit(cfg, rep)
}

// selfServe builds a seeded system in-process, wraps it in the serving
// layer, and listens on an ephemeral loopback port. The returned
// shutdown is the daemons' own (Shutdown → Drain).
func selfServe(cfg loadConfig) (base string, shutdown func() error, err error) {
	opts := stq.DefaultGridOpts()
	opts.NX, opts.NY = cfg.gridN, cfg.gridN
	sys, err := stq.NewGridCitySystem(opts, cfg.seed+100)
	if err != nil {
		return "", nil, err
	}
	mob := stq.DefaultMobilityOpts()
	mob.Objects = cfg.objects
	mob.Horizon = cfg.horizon
	wl, err := sys.GenerateWorkload(mob, cfg.seed+101)
	if err != nil {
		return "", nil, err
	}
	if err := sys.Ingest(wl); err != nil {
		return "", nil, err
	}
	if err := sys.PlaceSensors(stq.PlacementQuadTree, cfg.budget, cfg.seed+102); err != nil {
		return "", nil, err
	}
	stq.EnableObservability()

	srv := stq.NewServer(sys, stq.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs, _ := daemon.Start(ln, srv)
	return "http://" + ln.Addr().String(), func() error { return daemon.Stop(hs, srv) }, nil
}

// harness owns the client pool and the shared request streams. bases
// holds one or more equivalent targets; worker i drives bases[i mod N]
// for its whole run, and stats are read from bases[0].
type harness struct {
	cfg    loadConfig
	bases  []string
	client *http.Client

	bounds   [4]float64 // world bounds, from a probe query... filled by prepare
	hotRects [][4]float64
	stripes  [][]stq.Event // per-worker ingest stripes

	shed atomic.Uint64
}

func newHarness(cfg loadConfig, bases []string) *harness {
	tr := &http.Transport{MaxIdleConns: 4 * cfg.clients, MaxIdleConnsPerHost: 4 * cfg.clients}
	return &harness{
		cfg:    cfg,
		bases:  bases,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
	}
}

// prepare probes the target and pre-generates the request streams: the
// hot rect set, and the per-worker ingest stripes (partitioned by road
// / gateway so concurrent workers respect per-edge ordering).
func (h *harness) prepare() error {
	// World bounds are not exposed over the wire; the load generator
	// regenerates the same synthetic city shape it drives (seeded), so
	// rect generation just needs a plausible coordinate range. Use a
	// generated city of the configured shape for both bounds and the
	// ingest stream.
	opts := stq.DefaultGridOpts()
	opts.NX, opts.NY = h.cfg.gridN, h.cfg.gridN
	sys, err := stq.NewGridCitySystem(opts, h.cfg.seed+100)
	if err != nil {
		return err
	}
	b := sys.Bounds()
	h.bounds = [4]float64{b.Min.X, b.Min.Y, b.Max.X, b.Max.Y}

	rng := rand.New(rand.NewSource(h.cfg.seed))
	h.hotRects = make([][4]float64, 8)
	for i := range h.hotRects {
		h.hotRects[i] = h.randRect(rng)
	}

	// Ingest stream: a fresh workload over the same city, partitioned
	// into per-worker stripes by road (moves) / gateway (enter+leave).
	mob := stq.DefaultMobilityOpts()
	mob.Objects = h.cfg.objects
	mob.Horizon = h.cfg.horizon
	wl, err := sys.GenerateWorkload(mob, h.cfg.seed+7)
	if err != nil {
		return err
	}
	h.stripes = make([][]stq.Event, h.cfg.clients)
	for _, ev := range wl.Events {
		var be stq.Event
		var key int
		switch ev.Kind {
		case mobility.Move:
			be, key = stq.MoveEvent(ev.Road, ev.From, ev.T), int(ev.Road)
		case mobility.Enter:
			be, key = stq.EnterEvent(ev.At, ev.T), int(ev.At)
		case mobility.Leave:
			be, key = stq.LeaveEvent(ev.At, ev.T), int(ev.At)
		}
		w := key % len(h.stripes)
		h.stripes[w] = append(h.stripes[w], be)
	}
	return nil
}

func (h *harness) randRect(rng *rand.Rand) [4]float64 {
	w := h.bounds[2] - h.bounds[0]
	ht := h.bounds[3] - h.bounds[1]
	fw := (0.2 + 0.4*rng.Float64()) * w
	fh := (0.2 + 0.4*rng.Float64()) * ht
	x := h.bounds[0] + rng.Float64()*(w-fw)
	y := h.bounds[1] + rng.Float64()*(ht-fh)
	return [4]float64{x, y, x + fw, y + fh}
}

// worker is one simulated client: its own rng, its own ingest stripe
// cursor, its own sample buffers (merged after the run).
type worker struct {
	h      *harness
	id     int
	base   string // this worker's round-robin target
	rng    *rand.Rand
	cursor int
	lap    int

	// enc is the wire codec's per-worker frame encoder and evbuf the
	// shifted-timestamp batch of the current ingest, both reused across
	// requests so client-side encode cost stays flat.
	enc   wire.Encoder
	evbuf []stq.Event

	measureFrom time.Time
	samples     map[string][]float64 // latency ms per op kind
	ok          int
	rejected    int
	errs        int
	firstErr    error
}

const ingestChunk = 200

func (h *harness) newWorker(id int, measureFrom time.Time) *worker {
	return &worker{
		h: h, id: id, base: h.bases[id%len(h.bases)],
		rng:         rand.New(rand.NewSource(h.cfg.seed + int64(id)*7919)),
		measureFrom: measureFrom,
		samples:     map[string][]float64{},
	}
}

func (w *worker) step() {
	op := "ingest"
	r := w.rng.Float64()
	switch {
	case r < w.h.cfg.mix.snapshot:
		op = "snapshot"
	case r < w.h.cfg.mix.static:
		op = "static"
	case r < w.h.cfg.mix.transient:
		op = "transient"
	}
	// Per-request codec draw: with -wire-frac f, an f fraction of the
	// load goes binary and the rest stays JSON (-wire pins f = 1).
	useWire := w.h.cfg.wireFrac > 0 && w.rng.Float64() < w.h.cfg.wireFrac
	var status int
	var err error
	start := time.Now()
	if op == "ingest" {
		status, err = w.doIngest(useWire)
		if status == statusNoIngestData {
			return
		}
	} else {
		status, err = w.doQuery(op, useWire)
	}
	lat := time.Since(start)
	measured := start.After(w.measureFrom)
	switch {
	case err != nil:
		w.errs++
		if w.firstErr == nil {
			w.firstErr = err
		}
	case status == http.StatusTooManyRequests:
		if measured {
			w.rejected++
		}
	case status != http.StatusOK:
		w.errs++
		if w.firstErr == nil {
			w.firstErr = fmt.Errorf("%s: unexpected HTTP %d", op, status)
		}
	default:
		if measured {
			w.ok++
			w.samples[op] = append(w.samples[op], float64(lat)/1e6)
		}
	}
}

// wireKindOf maps the mix op names onto the pinned wire query kinds.
var wireKindOf = map[string]byte{
	"snapshot":  wire.QuerySnapshot,
	"static":    wire.QueryStatic,
	"transient": wire.QueryTransient,
}

func (w *worker) doQuery(op string, useWire bool) (int, error) {
	hz := w.h.cfg.horizon
	var rect [4]float64
	var t1, t2 float64
	if w.rng.Float64() < w.h.cfg.dup {
		// Hot queries repeat both the rect and a quantized time window,
		// so concurrent workers issue byte-identical requests and the
		// server's in-flight coalescer gets real work.
		rect = w.h.hotRects[w.rng.Intn(len(w.h.hotRects))]
		slot := float64(w.rng.Intn(4))
		t1 = slot * hz / 5
		t2 = t1 + hz/4
	} else {
		rect = w.h.randRect(w.rng)
		t1 = w.rng.Float64() * hz * 0.8
		t2 = t1 + w.rng.Float64()*(hz-t1)
	}
	if useWire {
		frame := w.enc.EncodeQuery(wire.QueryFrame{Rect: rect, T1: t1, T2: t2, Kind: wireKindOf[op]})
		return w.post("/v1/query", wire.ContentType, frame)
	}
	body, err := json.Marshal(stq.QueryRequest{Rect: rect, T1: t1, T2: t2, Kind: op})
	if err != nil {
		return 0, err
	}
	return w.post("/v1/query", "application/json", body)
}

// statusNoIngestData marks a worker whose stripe is empty (tiny
// workloads): the step is skipped rather than counted.
const statusNoIngestData = -1

func (w *worker) doIngest(useWire bool) (int, error) {
	stripe := w.h.stripes[w.id%len(w.h.stripes)]
	if len(stripe) == 0 {
		return statusNoIngestData, nil
	}
	if w.cursor >= len(stripe) {
		w.cursor = 0
		w.lap++
	}
	hi := w.cursor + ingestChunk
	if hi > len(stripe) {
		hi = len(stripe)
	}
	// Shift each lap past everything previously sent on these edges:
	// lap 0 starts one horizon past the target's pre-ingested data.
	offset := float64(w.lap+1) * (w.h.cfg.horizon + 1)
	lo := w.cursor
	w.cursor = hi
	w.evbuf = w.evbuf[:0]
	for _, ev := range stripe[lo:hi] {
		ev.T += offset
		w.evbuf = append(w.evbuf, ev)
	}
	if useWire {
		return w.post("/v1/ingest", wire.ContentType, w.enc.EncodeIngest(w.evbuf, wire.DefaultTick))
	}
	events := make([]stq.IngestEvent, len(w.evbuf))
	for i, ev := range w.evbuf {
		switch ev.Kind {
		case stq.EventMove:
			events[i] = stq.IngestEvent{Kind: "move", T: ev.T, Road: int(ev.Road), From: int(ev.From)}
		case stq.EventEnter:
			events[i] = stq.IngestEvent{Kind: "enter", T: ev.T, Gateway: int(ev.Gateway)}
		case stq.EventLeave:
			events[i] = stq.IngestEvent{Kind: "leave", T: ev.T, Gateway: int(ev.Gateway)}
		}
	}
	body, err := json.Marshal(stq.IngestRequest{Events: events})
	if err != nil {
		return 0, err
	}
	return w.post("/v1/ingest", "application/json", body)
}

// post sends one request body; body may alias the worker's encoder
// buffer, which is safe because it is consumed before Post returns.
func (w *worker) post(path, contentType string, body []byte) (int, error) {
	resp, err := w.h.client.Post(w.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// serveStats is the slice of GET /v1/stats the harness reads.
type serveStats struct {
	QueryExecs uint64
	Coalesced  uint64
	Rejected   uint64
}

func (h *harness) fetchStats() (serveStats, error) {
	resp, err := h.client.Get(h.bases[0] + "/v1/stats")
	if err != nil {
		return serveStats{}, err
	}
	defer resp.Body.Close()
	var s serveStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return serveStats{}, err
	}
	return s, nil
}

// drive runs warmup + measurement and aggregates the report.
func (h *harness) drive() *report {
	start := time.Now()
	measureFrom := start.Add(h.cfg.warmup)
	stopAt := measureFrom.Add(h.cfg.duration)

	before, berr := h.fetchStats()

	workers := make([]*worker, h.cfg.clients)
	for i := range workers {
		workers[i] = h.newWorker(i, measureFrom)
	}

	var wg sync.WaitGroup
	switch h.cfg.mode {
	case "open":
		arrivals := make(chan struct{}, 4*h.cfg.clients)
		go func() {
			rng := rand.New(rand.NewSource(h.cfg.seed + 31337))
			next := time.Now()
			for time.Now().Before(stopAt) {
				next = next.Add(time.Duration(rng.ExpFloat64() / h.cfg.rate * float64(time.Second)))
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				select {
				case arrivals <- struct{}{}:
				default:
					h.shed.Add(1)
				}
			}
			close(arrivals)
		}()
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for range arrivals {
					w.step()
				}
			}(w)
		}
	default: // closed
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for time.Now().Before(stopAt) {
					w.step()
				}
			}(w)
		}
	}
	wg.Wait()
	elapsed := time.Since(measureFrom)
	if elapsed > h.cfg.duration {
		elapsed = h.cfg.duration
	}

	after, aerr := h.fetchStats()

	rep := &report{
		Mode: h.cfg.mode, Clients: h.cfg.clients,
		WarmupS:   h.cfg.warmup.Seconds(),
		DurationS: h.cfg.duration.Seconds(),
		Shed:      h.shed.Load(),
		WireFrac:  h.cfg.wireFrac,
	}
	if h.cfg.mode == "open" {
		rep.RateHz = h.cfg.rate
	}
	merged := map[string][]float64{}
	for _, w := range workers {
		rep.TotalRequests += w.ok
		rep.Rejected += w.rejected
		rep.Errors += w.errs
		if rep.FirstError == "" && w.firstErr != nil {
			rep.FirstError = w.firstErr.Error()
		}
		for k, s := range w.samples {
			merged[k] = append(merged[k], s...)
		}
	}
	rep.ThroughputQPS = float64(rep.TotalRequests) / elapsed.Seconds()
	for _, kind := range []string{"snapshot", "static", "transient", "ingest"} {
		s := merged[kind]
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		ks := kindStats{
			Kind: kind, Count: len(s),
			P50Ms: percentile(s, 0.50), P95Ms: percentile(s, 0.95), P99Ms: percentile(s, 0.99),
			MeanMs: mean(s),
		}
		rep.Kinds = append(rep.Kinds, ks)
		if ks.P99Ms > rep.WorstP99Ms {
			rep.WorstP99Ms = ks.P99Ms
		}
	}
	if berr == nil && aerr == nil {
		rep.QueryExecs = after.QueryExecs - before.QueryExecs
		rep.Coalesced = after.Coalesced - before.Coalesced
	}
	return rep
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func mean(s []float64) float64 {
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

type kindStats struct {
	Kind   string  `json:"kind"`
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
}

type report struct {
	Pass             bool        `json:"pass"`
	Mode             string      `json:"mode"`
	Clients          int         `json:"clients"`
	WireFrac         float64     `json:"wire_frac,omitempty"`
	RateHz           float64     `json:"rate_hz,omitempty"`
	WarmupS          float64     `json:"warmup_s"`
	DurationS        float64     `json:"duration_s"`
	TotalRequests    int         `json:"total_requests"`
	ThroughputQPS    float64     `json:"throughput_qps"`
	Rejected         int         `json:"rejected"`
	Errors           int         `json:"errors"`
	FirstError       string      `json:"first_error,omitempty"`
	Shed             uint64      `json:"shed,omitempty"`
	QueryExecs       uint64      `json:"query_execs"`
	Coalesced        uint64      `json:"coalesced"`
	WorstP99Ms       float64     `json:"worst_p99_ms"`
	P99GateMs        float64     `json:"p99_gate_ms"`
	MinThroughputQPS float64     `json:"min_throughput_qps"`
	Kinds            []kindStats `json:"kinds"`
}

// emit applies the gates, prints the human summary, writes the report
// to -out when set, and returns an error when a gate failed.
func emit(cfg loadConfig, rep *report) error {
	rep.P99GateMs = cfg.p99GateMs
	rep.MinThroughputQPS = cfg.minQPS
	rep.Pass = rep.Errors == 0 &&
		rep.WorstP99Ms <= cfg.p99GateMs &&
		rep.ThroughputQPS >= cfg.minQPS &&
		rep.TotalRequests > 0

	surface := "json"
	switch {
	case rep.WireFrac >= 1:
		surface = "wire"
	case rep.WireFrac > 0:
		surface = fmt.Sprintf("mixed %.0f%% wire", rep.WireFrac*100)
	}
	fmt.Printf("\n== stqload: %s-loop, %d clients, %s, %.1fs measured ==\n",
		rep.Mode, rep.Clients, surface, rep.DurationS)
	fmt.Printf("throughput %.0f req/s (gate ≥%.0f)  requests %d  rejected(429) %d  errors %d  shed %d\n",
		rep.ThroughputQPS, rep.MinThroughputQPS, rep.TotalRequests, rep.Rejected, rep.Errors, rep.Shed)
	fmt.Printf("coalesced %d of %d query execs saved\n", rep.Coalesced, rep.QueryExecs+rep.Coalesced)
	fmt.Println("kind       count    p50ms    p95ms    p99ms   mean")
	for _, k := range rep.Kinds {
		fmt.Printf("%-9s %6d  %7.3f  %7.3f  %7.3f  %6.3f\n",
			k.Kind, k.Count, k.P50Ms, k.P95Ms, k.P99Ms, k.MeanMs)
	}
	fmt.Printf("worst p99 %.3fms (gate ≤%.0fms)  →  %s\n",
		rep.WorstP99Ms, rep.P99GateMs, verdict(rep.Pass))

	if cfg.out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.out)
	}
	if !rep.Pass {
		if rep.FirstError != "" {
			return fmt.Errorf("serving gate failed (first error: %s)", rep.FirstError)
		}
		return errors.New("serving gate failed")
	}
	return nil
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
