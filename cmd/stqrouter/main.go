// Command stqrouter is the stateless cluster router (DESIGN.md §16):
// it fronts N stqd cells, each serving one spatial partition of the
// manifest-pinned layout, and exposes the exact same serving surface
// (one stq.Server, JSON and binary wire codecs) as a single stqd. The unmodified query
// engine runs in this process with every storage read scattered to the
// owning cell over the wire protocol, so answers are bit-identical to
// a single-process partitioned system; a dead or timed-out cell
// degrades the answer into a sound widened [Lower, Upper] interval
// instead of failing the query.
//
// Generate the pinned manifest once, then boot cells and router on it:
//
//	stqrouter -init -manifest cluster.json -n 2 -nx 14 -ny 14 -seed 42
//	stqd -cell 0 -manifest cluster.json -addr :8181 &
//	stqd -cell 1 -manifest cluster.json -addr :8182 &
//	stqrouter -manifest cluster.json -cells localhost:8181,localhost:8182 -addr :8080
//
// The listener is bound before the cells are dialled
// (cmd/internal/daemon): /healthz answers 200 and everything else 503
// until every handshake has been tried and the router is serving.
//
// Exactly one router may write to a cluster (the two-phase cross-cell
// ingest relies on the router's routing lock); any number may read.
// Each cell checks time order per edge direction on the edges it owns,
// and the router keeps no clock of its own or of the cells.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro"
	"repro/cmd/internal/daemon"
	"repro/internal/cluster"
	"repro/internal/roadnet"
)

func main() {
	var (
		common   = daemon.Register(flag.CommandLine)
		manifest = flag.String("manifest", "cluster.json", "cluster manifest path")
		cells    = flag.String("cells", "", "comma-separated cell base addresses, one per manifest cell, in cell order")
		timeout  = flag.Duration("cell-timeout", 2*time.Second, "per-attempt cell RPC timeout")
		health   = flag.Duration("health-interval", 2*time.Second, "cell health probe period")

		initMan = flag.Bool("init", false, "write a fresh manifest to -manifest and exit")
		n       = flag.Int("n", 2, "-init: cell count")
		nx      = flag.Int("nx", 14, "-init: city grid columns")
		ny      = flag.Int("ny", 14, "-init: city grid rows")
	)
	flag.Parse()
	var err error
	if *initMan {
		err = writeManifest(*manifest, *n, *nx, *ny, common.Seed)
	} else {
		err = common.Run("stqrouter", func() (*stq.Server, error) {
			return dial(common, *manifest, *cells, cluster.Options{Timeout: *timeout, HealthInterval: *health})
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stqrouter:", err)
		os.Exit(1)
	}
}

// writeManifest pins a fresh cluster topology: world spec, cell count,
// and the layout hash every member verifies on boot.
func writeManifest(path string, n, nx, ny int, seed int64) error {
	opts := roadnet.DefaultGridOpts()
	opts.NX, opts.NY = nx, ny
	man, _, lay, err := cluster.NewManifest(cluster.GridSpec(opts, seed), n)
	if err != nil {
		return err
	}
	if err := man.Save(path); err != nil {
		return err
	}
	log.Printf("stqrouter: wrote %s (%d cells, %d junctions, layout %#016x)",
		path, man.Cells, len(lay.CellOfJunction), man.LayoutHash)
	return nil
}

// dial handshakes the cells of the manifest and builds the router's
// engine over them.
func dial(common *daemon.Flags, manifest, cells string, opt cluster.Options) (*stq.Server, error) {
	if cells == "" {
		return nil, fmt.Errorf("-cells is required (comma-separated cell addresses)")
	}
	man, err := cluster.LoadManifest(manifest)
	if err != nil {
		return nil, err
	}
	rset, err := cluster.Dial(man, strings.Split(cells, ","), opt)
	if err != nil {
		return nil, err
	}
	sys := stq.NewClusterSystem(rset)
	if err := common.Configure(sys); err != nil {
		return nil, err
	}
	live := 0
	for p := 0; p < rset.NumCells(); p++ {
		if rset.CellAlive(p) {
			live++
		}
	}
	log.Printf("stqrouter: %d cells, %d live, layout %#016x, %d sensors",
		rset.NumCells(), live, man.LayoutHash, sys.NumCommunicationSensors())
	return common.NewServer(sys, nil), nil
}
