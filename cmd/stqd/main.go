// Command stqd serves one stq.System over HTTP — the network serving
// layer of the in-network query framework (DESIGN.md §13). /v1/query
// and /v1/ingest speak JSON by default and the compact binary wire
// protocol (internal/wire, DESIGN.md §15) to clients sending
// Content-Type application/x-stq-wire: one request path, two codecs,
// and every answer — refusals included — in the codec of its request.
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
//	GET  /readyz         readiness (503 until the system is built, and while draining)
//
// The listener is bound before the system is built (cmd/internal/daemon),
// so /healthz answers 200 and everything else 503 during a durable
// recovery rather than the port being closed.
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
// and /v1/ingest only accepts events the cell's partition owns.
// -objects, -budget, -partitions and the privacy flags are ignored in
// cell mode (cells are dumb stores — the router owns placement and
// privacy). Every store checks time order per sensing-edge direction,
// cells included.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro"
	"repro/cmd/internal/daemon"
	"repro/internal/cluster"
	"repro/internal/roadnet"
)

type config struct {
	*daemon.Flags
	nx, ny     int
	objects    int
	horizon    float64
	partitions int
	durableDir string
	cell       int
	manifest   string
}

func main() {
	cfg := config{Flags: daemon.Register(flag.CommandLine)}
	flag.IntVar(&cfg.nx, "nx", 14, "city grid columns")
	flag.IntVar(&cfg.ny, "ny", 14, "city grid rows")
	flag.IntVar(&cfg.objects, "objects", 0, "pre-ingest a synthetic workload with this many objects (0 = start empty)")
	flag.Float64Var(&cfg.horizon, "horizon", 86400, "pre-ingested workload horizon in seconds")
	flag.IntVar(&cfg.partitions, "partitions", 1, "spatial partition count (>1 serves a partitioned multi-store)")
	flag.StringVar(&cfg.durableDir, "durable", "", "WAL/checkpoint directory (empty = in-memory only)")
	flag.IntVar(&cfg.cell, "cell", -1, "cluster cell mode: serve this partition of -manifest (-1 = standalone)")
	flag.StringVar(&cfg.manifest, "manifest", "", "cluster manifest path (required with -cell)")
	flag.Parse()

	build := cfg.buildStandalone
	if cfg.cell >= 0 {
		build = cfg.buildCell
	}
	if err := cfg.Run("stqd", build); err != nil {
		fmt.Fprintln(os.Stderr, "stqd:", err)
		os.Exit(1)
	}
}

// buildCell builds one cluster cell: a single full-world store (durable
// when -durable is set) over the manifest's world. The router owns
// placement and privacy.
func (cfg config) buildCell() (*stq.Server, error) {
	if cfg.manifest == "" {
		return nil, fmt.Errorf("-cell requires -manifest")
	}
	man, err := cluster.LoadManifest(cfg.manifest)
	if err != nil {
		return nil, err
	}
	w, lay, err := man.Materialize()
	if err != nil {
		return nil, err
	}
	cc := &stq.CellConfig{
		Index: cfg.cell, Cells: man.Cells,
		ManifestHash: man.LayoutHash, Layout: lay,
	}
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	sys := stq.NewSystem(w)
	if cfg.durableDir != "" {
		if sys, err = stq.OpenDurable(w, stq.Durability{Dir: cfg.durableDir}); err != nil {
			return nil, err
		}
	}
	cfg.Budget, cfg.PrivacyTotal = 0, 0
	if err := cfg.Configure(sys); err != nil {
		return nil, err
	}
	log.Printf("stqd: cell %d/%d (%d junctions, %d roads, %d events, durable=%v)",
		cfg.cell, man.Cells, w.NumJunctions(), w.NumRoads(), sys.NumEvents(), sys.Durable())
	return cfg.NewServer(sys, cc), nil
}

// buildStandalone constructs the served system: durable when a WAL
// directory is given (recovering whatever it holds), in-memory
// otherwise, with optional pre-ingested workload and sensor placement.
func (cfg config) buildStandalone() (*stq.Server, error) {
	opts := stq.DefaultGridOpts()
	opts.NX, opts.NY = cfg.nx, cfg.ny
	w, err := roadnet.GridCity(opts, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	var sys *stq.System
	if cfg.durableDir != "" {
		sys, err = stq.OpenDurable(w, stq.Durability{Dir: cfg.durableDir, Partitions: cfg.partitions})
	} else {
		sys, err = stq.NewPartitionedSystem(w, cfg.partitions)
	}
	if err != nil {
		return nil, err
	}
	if err := cfg.Configure(sys); err != nil {
		return nil, err
	}

	// Seed the store only when it is empty: a durable restart already
	// recovered its history.
	if cfg.objects > 0 && sys.NumEvents() == 0 {
		mob := stq.DefaultMobilityOpts()
		mob.Objects = cfg.objects
		mob.Horizon = cfg.horizon
		wl, err := sys.GenerateWorkload(mob, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		if err := sys.Ingest(wl); err != nil {
			return nil, err
		}
	}
	log.Printf("stqd: %d junctions, %d roads, %d events, %d sensors, %d partition(s), durable=%v",
		w.NumJunctions(), w.NumRoads(), sys.NumEvents(),
		sys.NumCommunicationSensors(), sys.NumPartitions(), sys.Durable())
	return cfg.NewServer(sys, nil), nil
}
