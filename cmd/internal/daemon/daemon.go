// Package daemon is the process half stqd, stqd -cell and stqrouter
// share (DESIGN.md §16.5): the nine common flags, the System
// configuration they select, and the one lifecycle — bind the listener,
// answer probes while the system recovers or dials, swap in the
// stq.Server, and on SIGINT/SIGTERM shut down, drain and close.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
)

// readHeaderTimeout bounds how long a peer may take to send its request
// headers, so a connection that never finishes them cannot pin a
// goroutine for the life of the process (slow-loris). A variable only
// so the test can shorten it.
var readHeaderTimeout = 10 * time.Second

// readTimeout bounds the whole request, body included. The handlers
// take their admission slot before they read the body, so without it
// MaxInflight peers that send headers and then stall would hold every
// slot for the life of the process; with it the stalled read fails, the
// request is answered 400 and the slot is released. A variable only so
// the test can shorten it.
var readTimeout = 30 * time.Second

// shutdownTimeout bounds the wait for in-flight requests on shutdown.
const shutdownTimeout = 30 * time.Second

// Flags holds the flags common to the daemons.
type Flags struct {
	Addr                     string
	Seed                     int64
	Budget                   int
	PrivacyTotal, PrivacyEps float64
	MaxInflight, MaxQueued   int
	Slow                     time.Duration
	NoObs                    bool
}

// Register declares the common flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.StringVar(&f.Addr, "addr", ":8080", "listen address")
	fs.Int64Var(&f.Seed, "seed", 42, "world / workload / placement seed")
	fs.IntVar(&f.Budget, "budget", 64, "communication-sensor budget (0 = unsampled full graph)")
	fs.Float64Var(&f.PrivacyTotal, "privacy-total", 0, "total privacy budget ε (0 = privacy off)")
	fs.Float64Var(&f.PrivacyEps, "privacy-eps", 0.1, "per-query ε when privacy is on")
	fs.IntVar(&f.MaxInflight, "max-inflight", 0, "admission: concurrent requests (0 = 4×GOMAXPROCS)")
	fs.IntVar(&f.MaxQueued, "max-queued", 0, "admission: waiting room before 429 (0 = 4×max-inflight)")
	fs.DurationVar(&f.Slow, "slow", 0, "slow-query log threshold (0 = off)")
	fs.BoolVar(&f.NoObs, "no-obs", false, "leave observability instrumentation off")
	return f
}

// Configure applies the flags to a built system: sensor placement,
// privacy, and the process-wide observability and slow-query settings.
// A NaN or infinite privacy ε is refused before anything is applied.
func (f *Flags) Configure(sys *stq.System) error {
	for _, eps := range [...]float64{f.PrivacyTotal, f.PrivacyEps} {
		if math.IsNaN(eps) || math.IsInf(eps, 0) {
			return fmt.Errorf("-privacy-total %v, -privacy-eps %v: privacy epsilons must be finite", f.PrivacyTotal, f.PrivacyEps)
		}
	}
	if f.Budget > 0 {
		if err := sys.PlaceSensors(stq.PlacementQuadTree, f.Budget, f.Seed+2); err != nil {
			return err
		}
	}
	if f.PrivacyTotal > 0 {
		if err := sys.EnablePrivacy(f.PrivacyTotal, f.PrivacyEps); err != nil {
			return err
		}
	}
	if !f.NoObs {
		stq.EnableObservability()
	}
	if f.Slow > 0 {
		stq.SetSlowQueryThreshold(f.Slow)
	}
	return nil
}

// NewServer wraps the configured system in its serving layer; cell is
// nil outside cluster cell mode.
func (f *Flags) NewServer(sys *stq.System, cell *stq.CellConfig) *stq.Server {
	return stq.NewServer(sys, stq.ServerConfig{MaxInflight: f.MaxInflight, MaxQueued: f.MaxQueued, Cell: cell})
}

// Run is the daemon lifecycle. It binds -addr before calling build, so
// the process is probeable from its first moment: /healthz answers 200
// and everything else 503 while build recovers a durable system or
// dials cells. Once build returns, its Server takes over the listener.
// On SIGINT/SIGTERM the listener closes, in-flight requests finish, the
// server drains (queued ingest, background seals, a final checkpoint
// when durable) and the system is closed.
func (f *Flags) Run(name string, build func() (*stq.Server, error)) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", f.Addr)
	if err != nil {
		return err
	}
	return serve(ctx, ln, name, build)
}

func serve(ctx context.Context, ln net.Listener, name string, build func() (*stq.Server, error)) error {
	var handler atomic.Pointer[http.Handler]
	booting := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, `{"ok":true}`)
			return
		}
		http.Error(w, name+" starting", http.StatusServiceUnavailable)
	}))
	handler.Store(&booting)
	hs, failed := Start(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}))

	// build runs beside the wait for a signal: one that arrives before
	// anything is served has nothing to drain, and must not have to wait
	// out a long recovery.
	type built struct {
		srv *stq.Server
		err error
	}
	done := make(chan built, 1)
	go func() {
		srv, err := build()
		done <- built{srv, err}
	}()
	var srv *stq.Server
	select {
	case <-ctx.Done():
		hs.Close()
		return errors.New("stopped while starting")
	case err := <-failed:
		return err
	case b := <-done:
		if b.err != nil {
			hs.Close()
			return b.err
		}
		srv = b.srv
	}
	ready := http.Handler(srv)
	handler.Store(&ready)
	log.Printf("%s: serving on %s", name, ln.Addr())

	select {
	case <-ctx.Done():
	case err := <-failed:
		return err
	}
	log.Printf("%s: signal received, draining (in-flight requests finish, then final checkpoint)", name)
	if err := Stop(hs, srv); err != nil {
		return err
	}
	if err := srv.System().Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	log.Printf("%s: drained cleanly", name)
	return nil
}

// Start serves h on ln in the background, with the daemon's header and
// request timeouts. failed receives the error of a listener that broke;
// after Stop or Close it receives nothing.
func Start(ln net.Listener, h http.Handler) (hs *http.Server, failed <-chan error) {
	hs = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		// Left at zero, IdleTimeout would take ReadTimeout's value and
		// start closing the router's idle keep-alive connections to its
		// cells; negative keeps them open, as before.
		IdleTimeout: -1,
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	return hs, errc
}

// Stop is the shutdown sequence of a served stq.Server: stop accepting
// and let in-flight handlers finish — which is what lets queued ingest
// complete cleanly — then drain.
func Stop(hs *http.Server, srv *stq.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := srv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
