// Command stqd serves one stq.System over HTTP — the network serving
// layer of the in-network query framework (DESIGN.md §13). JSON is the
// default surface; clients sending Content-Type application/x-stq-wire
// get the compact binary wire protocol (internal/wire, DESIGN.md §15)
// on the same endpoints: CRC-framed query/ingest requests, binary
// result frames, and error frames on every refusal.
//
// It builds a synthetic grid city, optionally pre-ingests a seeded
// workload, places communication sensors, and serves:
//
//	POST /v1/query       spatiotemporal range count
//	POST /v1/ingest      batch event ingestion
//	POST /v1/checkpoint  durable checkpoint (409 when not durable)
//	GET  /v1/stats       serving counters, plan cache, latency quantiles
//	GET  /metrics        Prometheus text exposition
//	GET  /metrics.json   expvar-style JSON dump
//	GET  /healthz        liveness (503 while draining)
//
// Quickstart:
//
//	stqd -addr :8080 -objects 200 &
//	curl -s localhost:8080/v1/query -d '{"rect":[100,100,400,400],"t1":3600,"t2":7200,"kind":"transient"}'
//	curl -s localhost:8080/metrics | head
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting,
// finishes in-flight requests, flushes queued ingest group commits,
// waits for background history seals, and writes a final checkpoint
// when running durably (-durable).
//
// # Cluster cell mode
//
// With -cell N -manifest cluster.json the daemon serves one spatial
// partition of a multi-process cluster behind a stqrouter (DESIGN.md
// §16): the world and partition layout are rebuilt from the pinned
// manifest (refusing to serve on a hash mismatch), the wire-native
// /v1/cell endpoint answers the router's handshakes and scatter ops,
// and /v1/ingest only accepts events the cell's partition owns. The
// listener comes up before recovery so /readyz reports 503 until the
// cell is actually serving; -objects, -budget, -partitions, and the
// privacy flags are ignored in cell mode (cells are dumb stores — the
// router owns placement and privacy).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/roadnet"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		nx          = flag.Int("nx", 14, "city grid columns")
		ny          = flag.Int("ny", 14, "city grid rows")
		seed        = flag.Int64("seed", 42, "world / workload / placement seed")
		objects     = flag.Int("objects", 0, "pre-ingest a synthetic workload with this many objects (0 = start empty)")
		horizon     = flag.Float64("horizon", 86400, "pre-ingested workload horizon in seconds")
		budget      = flag.Int("budget", 64, "communication-sensor budget (0 = unsampled full graph)")
		partitions  = flag.Int("partitions", 1, "spatial partition count (>1 serves a partitioned multi-store)")
		durableDir  = flag.String("durable", "", "WAL/checkpoint directory (empty = in-memory only)")
		order       = flag.String("order", "peredge", "ingest ordering contract: peredge | global")
		privTotal   = flag.Float64("privacy-total", 0, "total privacy budget ε (0 = privacy off)")
		privPer     = flag.Float64("privacy-eps", 0.1, "per-query ε when privacy is on")
		maxInflight = flag.Int("max-inflight", 0, "admission: concurrent requests (0 = 4×GOMAXPROCS)")
		maxQueued   = flag.Int("max-queued", 0, "admission: waiting room before 429 (0 = 4×max-inflight)")
		slow        = flag.Duration("slow", 0, "slow-query log threshold (0 = off)")
		noObs       = flag.Bool("no-obs", false, "leave observability instrumentation off")
		cell        = flag.Int("cell", -1, "cluster cell mode: serve this partition of -manifest (-1 = standalone)")
		manifest    = flag.String("manifest", "", "cluster manifest path (required with -cell)")
	)
	flag.Parse()
	if err := run(config{
		addr: *addr, nx: *nx, ny: *ny, seed: *seed, objects: *objects,
		horizon: *horizon, budget: *budget, partitions: *partitions,
		durableDir: *durableDir,
		order:      *order, privTotal: *privTotal, privPer: *privPer,
		maxInflight: *maxInflight, maxQueued: *maxQueued,
		slow: *slow, obs: !*noObs,
		cell: *cell, manifest: *manifest,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "stqd:", err)
		os.Exit(1)
	}
}

type config struct {
	addr               string
	nx, ny             int
	seed               int64
	objects            int
	horizon            float64
	budget             int
	partitions         int
	durableDir         string
	order              string
	privTotal, privPer float64
	maxInflight        int
	maxQueued          int
	slow               time.Duration
	obs                bool
	cell               int
	manifest           string
}

func run(cfg config) error {
	if cfg.cell >= 0 {
		return runCell(cfg)
	}
	sys, err := buildSystem(cfg)
	if err != nil {
		return err
	}
	if cfg.obs {
		stq.EnableObservability()
	}
	if cfg.slow > 0 {
		stq.SetSlowQueryThreshold(cfg.slow)
	}

	srv := stq.NewServer(sys, stq.ServerConfig{
		MaxInflight: cfg.maxInflight,
		MaxQueued:   cfg.maxQueued,
	})
	hs := &http.Server{Addr: cfg.addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("stqd: signal received, draining (in-flight requests finish, then final checkpoint)")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("stqd: shutdown: %v", err)
		}
	}()

	log.Printf("stqd: serving on %s (%d junctions, %d roads, %d events, %d sensors, %d partition(s), durable=%v)",
		cfg.addr, sys.World().NumJunctions(), sys.World().NumRoads(),
		sys.NumEvents(), sys.NumCommunicationSensors(), sys.NumPartitions(), sys.Durable())
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := srv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := sys.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	log.Printf("stqd: drained cleanly")
	return nil
}

// runCell serves one cluster cell. The listener comes up before the
// (possibly long) durable recovery, answering /healthz 200 and
// everything else 503, so the router can probe the cell from its first
// moment; the real server handler is swapped in once the system is
// ready.
func runCell(cfg config) error {
	if cfg.manifest == "" {
		return fmt.Errorf("-cell requires -manifest")
	}
	man, err := cluster.LoadManifest(cfg.manifest)
	if err != nil {
		return err
	}
	w, lay, err := man.Materialize()
	if err != nil {
		return err
	}
	if cfg.cell >= man.Cells {
		return fmt.Errorf("-cell %d out of range for a %d-cell manifest", cfg.cell, man.Cells)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	var handler atomic.Pointer[http.Handler]
	boot := http.Handler(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			rw.WriteHeader(http.StatusOK)
			fmt.Fprintln(rw, `{"ok":true}`)
			return
		}
		http.Error(rw, "cell recovering", http.StatusServiceUnavailable)
	}))
	handler.Store(&boot)
	hs := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(rw, r)
	})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sys, err := buildCellSystem(cfg, w)
	if err != nil {
		hs.Close()
		return err
	}
	if cfg.obs {
		stq.EnableObservability()
	}
	if cfg.slow > 0 {
		stq.SetSlowQueryThreshold(cfg.slow)
	}
	cc := &stq.CellConfig{
		Index: cfg.cell, Cells: man.Cells,
		ManifestHash: man.LayoutHash, Layout: lay,
	}
	if err := cc.Validate(); err != nil {
		hs.Close()
		return err
	}
	srv := stq.NewServer(sys, stq.ServerConfig{
		MaxInflight: cfg.maxInflight,
		MaxQueued:   cfg.maxQueued,
		Cell:        cc,
	})
	ready := http.Handler(srv)
	handler.Store(&ready)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("stqd: signal received, draining cell %d", cfg.cell)
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("stqd: shutdown: %v", err)
		}
	}()

	log.Printf("stqd: cell %d/%d serving on %s (%d junctions, %d roads, %d events, durable=%v)",
		cfg.cell, man.Cells, ln.Addr(), w.NumJunctions(), w.NumRoads(), sys.NumEvents(), sys.Durable())
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := srv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := sys.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	log.Printf("stqd: cell %d drained cleanly", cfg.cell)
	return nil
}

// buildCellSystem constructs a cell's system: a single full-world
// store (durable when -durable is set), forced to OrderPerEdge — the
// cell is one member of the router's partition.Set, and the Set is the
// ordering authority for its members (DESIGN.md §14.2).
func buildCellSystem(cfg config, w *roadnet.World) (*stq.System, error) {
	var sys *stq.System
	if cfg.durableDir != "" {
		var err error
		sys, err = stq.OpenDurable(w, stq.Durability{Dir: cfg.durableDir})
		if err != nil {
			return nil, err
		}
	} else {
		sys = stq.NewSystem(w)
	}
	if err := sys.SetIngestOrdering(stq.OrderPerEdge); err != nil {
		return nil, err
	}
	return sys, nil
}

// buildSystem constructs the served system: durable when a WAL
// directory is given (recovering whatever it holds), in-memory
// otherwise, with optional pre-ingested workload and sensor placement.
func buildSystem(cfg config) (*stq.System, error) {
	opts := stq.DefaultGridOpts()
	opts.NX, opts.NY = cfg.nx, cfg.ny

	var sys *stq.System
	switch {
	case cfg.durableDir != "":
		w, err := roadnet.GridCity(opts, rand.New(rand.NewSource(cfg.seed)))
		if err != nil {
			return nil, err
		}
		sys, err = stq.OpenDurable(w, stq.Durability{Dir: cfg.durableDir, Partitions: cfg.partitions})
		if err != nil {
			return nil, err
		}
	case cfg.partitions > 1:
		w, err := roadnet.GridCity(opts, rand.New(rand.NewSource(cfg.seed)))
		if err != nil {
			return nil, err
		}
		sys, err = stq.NewPartitionedSystem(w, cfg.partitions)
		if err != nil {
			return nil, err
		}
	default:
		var err error
		sys, err = stq.NewGridCitySystem(opts, cfg.seed)
		if err != nil {
			return nil, err
		}
	}

	switch cfg.order {
	case "peredge":
		if err := sys.SetIngestOrdering(stq.OrderPerEdge); err != nil {
			return nil, err
		}
	case "global":
		if err := sys.SetIngestOrdering(stq.OrderGlobal); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown -order %q (peredge | global)", cfg.order)
	}

	// Seed the store only when it is empty: a durable restart already
	// recovered its history.
	if cfg.objects > 0 && sys.NumEvents() == 0 {
		mob := stq.DefaultMobilityOpts()
		mob.Objects = cfg.objects
		mob.Horizon = cfg.horizon
		wl, err := sys.GenerateWorkload(mob, cfg.seed+1)
		if err != nil {
			return nil, err
		}
		if err := sys.Ingest(wl); err != nil {
			return nil, err
		}
	}
	if cfg.budget > 0 {
		if err := sys.PlaceSensors(stq.PlacementQuadTree, cfg.budget, cfg.seed+2); err != nil {
			return nil, err
		}
	}
	if cfg.privTotal > 0 {
		if err := sys.EnablePrivacy(cfg.privTotal, cfg.privPer, cfg.seed+3); err != nil {
			return nil, err
		}
	}
	return sys, nil
}
