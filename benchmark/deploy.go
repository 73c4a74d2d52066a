package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	stq "repro"
	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/roadnet"
)

// deployment is one booted stack. Every run boots a fresh one: ingest
// streams restart at lap 0, so reusing a deployment across runs would
// violate per-edge order (the 1 181 ordering errors per rerun that
// stqload shows against a live cluster).
type deployment struct {
	in  *inputs
	sys *stq.System
	// members are the systems that hold events: sys itself, or the
	// cell systems behind a router.
	members []*stq.System
	// srv and base are the front server and its URL (nil/"" for the
	// in-process engine deployment).
	srv  *stq.Server
	base string
	// dir is the durable directory (ingest_durable only).
	dir string
	// closers run in reverse order on close.
	closers []func() error
}

func (d *deployment) close() error {
	var first error
	for i := len(d.closers) - 1; i >= 0; i-- {
		if err := d.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	d.closers = nil
	return first
}

// bootOpts are the harness-side choices of a boot; nothing here changes
// what the program does.
type bootOpts struct {
	// spans, when non-nil, wraps the front server and every cell in a
	// span-recording http.Handler (traced runs only).
	spans *spanLog
	// dir is where a durable deployment keeps its log.
	dir string
	// noFront stops short of the front Server: the deployment's System
	// is called in-process (the traced run's direct-call twin).
	noFront bool
}

// historyConfig is the tiered-history configuration of every member.
func historyConfig(autoSeal int) stq.HistoryConfig {
	return stq.HistoryConfig{
		Tick: historyTick, HotKeep: historyHotKeep,
		SealThreshold: historySealThreshold, AutoSealEvery: autoSeal,
	}
}

// loadSystem brings one freshly constructed System to its serving
// state: per-edge ordering, the preload (restricted to keep), tiered
// history on and sealed.
func loadSystem(sys *stq.System, in *inputs, keep func(stq.Event) bool, autoSeal int) error {
	if err := sys.SetIngestOrdering(stq.OrderPerEdge); err != nil {
		return err
	}
	if err := in.feedPreload(sys.RecordBatch, keep); err != nil {
		return err
	}
	if err := sys.EnableTieredHistory(historyConfig(autoSeal)); err != nil {
		return err
	}
	sys.SealHistory()
	return nil
}

// serve puts h on a loopback listener, as cmd/stqd does with its
// stq.Server, and registers the shutdown.
func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	d.closers = append(d.closers, func() error {
		cerr := hs.Close()
		if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return cerr
	})
	return ln.Addr().String(), nil
}

// front wraps sys in the serving layer and listens, the way cmd/stqd
// and cmd/stqrouter do after building their System.
func (d *deployment) front(sys *stq.System, opts bootOpts) error {
	d.sys = sys
	if opts.noFront {
		d.closers = append(d.closers, sys.Close)
		return nil
	}
	d.srv = stq.NewServer(sys, stq.ServerConfig{})
	d.closers = append(d.closers, sys.Close, d.srv.Drain)
	var h http.Handler = d.srv
	if opts.spans != nil {
		h = opts.spans.wrap("serve", -1, h)
	}
	addr, err := d.serve(h)
	if err != nil {
		return err
	}
	d.base = "http://" + addr
	return nil
}

// boot builds the workload's deployment from the inputs. On error the
// partial deployment is torn down.
func boot(in *inputs, opts bootOpts) (d *deployment, err error) {
	d = &deployment{in: in}
	defer func() {
		if err != nil {
			_ = d.close()
			d = nil
		}
	}()
	switch in.spec.deploy {
	case deployEngine, deployServed:
		var w *roadnet.World
		if w, err = buildWorld(in.gridOpts); err != nil {
			return
		}
		sys := stq.NewSystem(w)
		if err = loadSystem(sys, in, nil, 0); err != nil {
			return
		}
		if in.spec.sampled {
			if err = sys.PlaceSensors(stq.PlacementQuadTree, sensorBudget, datasetSeed+placementSeedOffset); err != nil {
				return
			}
		}
		d.members = []*stq.System{sys}
		opts.noFront = opts.noFront || in.spec.deploy == deployEngine
		err = d.front(sys, opts)
		return

	case deployRouted:
		err = d.bootRouted(opts)
		return

	case deployDurable:
		var w *roadnet.World
		if w, err = buildWorld(in.gridOpts); err != nil {
			return
		}
		d.dir = opts.dir
		var sys *stq.System
		if sys, err = stq.OpenDurable(w, durability(d.dir)); err != nil {
			return
		}
		d.members = []*stq.System{sys}
		if err = loadSystem(sys, in, nil, durableAutoSeal); err != nil {
			_ = sys.Close()
			return
		}
		// Start the measured phase from a checkpoint, so the log holds
		// only what the run itself appends.
		if err = sys.Checkpoint(); err != nil {
			_ = sys.Close()
			return
		}
		err = d.front(sys, opts)
		return
	}
	err = fmt.Errorf("unknown deployment kind %d", in.spec.deploy)
	return
}

// durability is ingest_durable's log configuration; recovery reopens
// the crash image with the same one.
func durability(dir string) stq.Durability {
	return stq.Durability{Dir: dir, Partitions: durablePartition, Sync: stq.SyncInterval}
}

// bootRouted boots cell servers on loopback sockets, each preloaded
// with the events its partition owns, then the router over
// cluster.Dial — the topology of `stqrouter` in front of `stqd -cell`
// processes with only the process boundary elided.
func (d *deployment) bootRouted(opts bootOpts) error {
	in := d.in
	man, world, lay, err := cluster.NewManifest(cluster.GridSpec(in.gridOpts, datasetSeed), cells)
	if err != nil {
		return err
	}
	addrs := make([]string, cells)
	for p := 0; p < cells; p++ {
		csys := stq.NewSystem(world)
		p := p
		if err := loadSystem(csys, in, func(e stq.Event) bool { return ownerOf(lay, e) == p }, 0); err != nil {
			return err
		}
		cc := &stq.CellConfig{Index: p, Cells: cells, ManifestHash: man.LayoutHash, Layout: lay}
		if err := cc.Validate(); err != nil {
			return err
		}
		srv := stq.NewServer(csys, stq.ServerConfig{Cell: cc})
		d.closers = append(d.closers, srv.Drain)
		d.members = append(d.members, csys)
		var h http.Handler = srv
		if opts.spans != nil {
			h = opts.spans.wrap("cell", p, h)
		}
		if addrs[p], err = d.serve(h); err != nil {
			return err
		}
	}
	rset, err := cluster.Dial(man, addrs, cluster.Options{})
	if err != nil {
		return err
	}
	sys := stq.NewClusterSystem(rset)
	if err := sys.SetIngestOrdering(stq.OrderPerEdge); err != nil {
		_ = sys.Close()
		return err
	}
	for p := 0; p < cells; p++ {
		if !rset.CellAlive(p) {
			_ = sys.Close()
			return fmt.Errorf("cell %d did not handshake", p)
		}
	}
	return d.front(sys, opts)
}

func ownerOf(lay *partition.Layout, e stq.Event) int {
	if e.Kind == stq.EventMove {
		return lay.OwnerOfRoad(e.Road)
	}
	return lay.OwnerOfJunction(e.Gateway)
}

// memoryStats is resident event storage summed over members.
type memoryStats struct {
	bytes, events int
	// hotPerEvent and warmPerEvent are bytes per event of each tier.
	hotPerEvent, warmPerEvent float64
}

// memory sums resident event storage over members at rest: everything
// beyond HotKeep sealed, whatever the seal threshold had left hot. With
// the threshold in force a direction holds between HotKeep and
// SealThreshold hot timestamps depending on how many events the run got
// to ingest, and bytes per event would follow the run's speed rather
// than the storage format (±4% on routed_hot, whose live ingest lands
// right at the threshold).
func (d *deployment) memory() (memoryStats, error) {
	var st memoryStats
	var hot, warm, warmEvents int
	for _, m := range d.members {
		m.WaitHistorySeals()
		atRest := historyConfig(0)
		atRest.SealThreshold = atRest.HotKeep + 1
		if err := m.EnableTieredHistory(atRest); err != nil {
			return st, err
		}
		m.SealHistory()
		ms := m.Memory()
		st.bytes += ms.TotalBytes()
		st.events += ms.Events
		hot += ms.HotBytes
		warm += ms.SealedBytes
		warmEvents += ms.SealedEvents
	}
	st.hotPerEvent = ratio(float64(hot), float64(st.events-warmEvents))
	st.warmPerEvent = ratio(float64(warm), float64(warmEvents))
	return st, nil
}

// copyDir copies the regular files of a durable directory tree: the
// crash image recovery is timed on.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
