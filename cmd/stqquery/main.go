// Command stqquery loads a world bundle produced by stqgen and answers
// ad-hoc spatiotemporal range count queries over it, optionally on a
// sampled sensor subset placed by one of the stq.Placement strategies
// (uniform, systematic, stratified, kdtree, quadtree).
//
// One-shot:
//
//	stqquery -in world.json -kind transient -rect 100,100,900,900 -t1 3600 -t2 86400
//	stqquery -in world.json -sensors 64 -placement quadtree -kind snapshot -rect 0,0,500,500 -t1 7200
//
// REPL (one query per line: kind x1 y1 x2 y2 t1 t2):
//
//	stqquery -in world.json -repl
//
// Every query runs on one stq.System. Without -state it is an in-memory
// system fed the bundle's events. With -state it is a durable one
// rooted at the given directory: the first invocation ingests the
// bundle's events into the write-ahead log and checkpoints them, and
// later invocations recover the counts from disk instead of re-reading
// the bundle's event stream. Both answer every query alike:
//
//	stqquery -in world.json -state ./qstate -kind snapshot -rect 0,0,500,500 -t1 7200
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	stq "repro"
	"repro/internal/geom"
	"repro/internal/worldio"
)

func main() {
	var (
		in        = flag.String("in", "world.json", "input bundle from stqgen")
		kind      = flag.String("kind", "snapshot", "snapshot | static | transient")
		rectSpec  = flag.String("rect", "", "query rectangle: x1,y1,x2,y2")
		t1        = flag.Float64("t1", 0, "interval start (seconds)")
		t2        = flag.Float64("t2", 0, "interval end (seconds)")
		sensors   = flag.Int("sensors", 0, "communication sensor budget (0 = unsampled)")
		placement = flag.String("placement", "quadtree", "uniform | systematic | stratified | kdtree | quadtree")
		bound     = flag.String("bound", "lower", "lower | upper")
		seed      = flag.Int64("seed", 1, "placement seed")
		repl      = flag.Bool("repl", false, "read queries from stdin")
		metrics   = flag.Bool("metrics", false, "dump observability metrics (Prometheus text) to stderr on exit")
		state     = flag.String("state", "", "durable state directory (WAL + checkpoints); counts persist across invocations")
	)
	flag.Parse()
	if *metrics {
		stq.EnableObservability()
		defer func() {
			if err := stq.WriteMetrics(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "stqquery: metrics:", err)
			}
		}()
	}
	var rd io.Reader
	if *repl {
		rd = os.Stdin
	}
	err := run(os.Stdout, rd, options{
		in: *in, state: *state, kind: *kind, rect: *rectSpec, t1: *t1, t2: *t2,
		sensors: *sensors, placement: *placement, bound: *bound, seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stqquery:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	in, state, kind, rect, placement, bound string
	t1, t2                                  float64
	sensors                                 int
	seed                                    int64
}

// run loads the bundle into one System — in memory, or durable under
// o.state — and answers one query, or every line of repl when it is
// non-nil.
func run(out io.Writer, repl io.Reader, o options) error {
	k, err := kindByName(o.kind)
	if err != nil {
		return err
	}
	bound, err := boundByName(o.bound)
	if err != nil {
		return err
	}
	place, err := placementByName(o.placement)
	if err != nil {
		return err
	}
	f, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer f.Close()
	world, wl, err := worldio.Load(f)
	if err != nil {
		return err
	}
	var sys *stq.System
	if o.state == "" {
		sys = stq.NewSystem(world)
		err = sys.Ingest(wl)
	} else {
		if sys, err = stq.OpenDurable(world, stq.Durability{Dir: o.state}); err != nil {
			return err
		}
		defer sys.Close()
		if sys.NumEvents() > 0 {
			fmt.Fprintf(out, "state %s recovered: %d events (bundle event stream skipped)\n", o.state, sys.NumEvents())
		} else if err = sys.Ingest(wl); err == nil {
			if err = sys.Checkpoint(); err == nil {
				fmt.Fprintf(out, "state %s initialized: %d events ingested and checkpointed\n", o.state, sys.NumEvents())
			}
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded %s: %d junctions, %d events, horizon %.0fs\n",
		o.in, world.NumJunctions(), sys.NumEvents(), wl.Horizon)
	if o.sensors > 0 {
		if err := sys.PlaceSensors(place, o.sensors, o.seed); err != nil {
			return err
		}
		fmt.Fprintf(out, "sampled graph: %d communication sensors\n", sys.NumCommunicationSensors())
	}

	ask := func(rect stq.Rect, k stq.Kind, t1, t2 float64) error {
		resp, err := sys.Query(stq.Query{Rect: rect, T1: t1, T2: t2, Kind: k, Bound: bound})
		if err != nil {
			return err
		}
		if resp.Missed {
			fmt.Fprintf(out, "%s: MISS (sampled graph does not cover the region)\n", k)
			return nil
		}
		fmt.Fprintf(out, "%s: count=%.0f  faces=%d  sensors=%d  messages=%d  hops=%d  edges=%d\n",
			k, resp.Count, resp.RegionFaces,
			resp.NodesAccessed, resp.Messages, resp.Hops, resp.EdgesAccessed)
		return nil
	}
	if repl != nil {
		return replLoop(out, repl, ask)
	}
	if o.rect == "" {
		return fmt.Errorf("-rect required (or use -repl)")
	}
	rect, err := parseRect(o.rect)
	if err != nil {
		return err
	}
	return ask(rect, k, o.t1, o.t2)
}

// replLoop reads one query per line of in and hands it to ask.
func replLoop(out io.Writer, in io.Reader, ask func(rect stq.Rect, k stq.Kind, t1, t2 float64) error) error {
	fmt.Fprintln(out, "enter queries: <kind> <x1> <y1> <x2> <y2> <t1> <t2>   (EOF to quit)")
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 7 {
			fmt.Fprintln(out, "want: kind x1 y1 x2 y2 t1 t2")
			continue
		}
		k, err := kindByName(fields[0])
		if err != nil {
			fmt.Fprintln(out, err)
			continue
		}
		var nums [6]float64
		bad := false
		for i, s := range fields[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				fmt.Fprintf(out, "bad number %q\n", s)
				bad = true
				break
			}
			nums[i] = v
		}
		if bad {
			continue
		}
		rect := geom.NewRect(geom.Pt(nums[0], nums[1]), geom.Pt(nums[2], nums[3]))
		if err := ask(rect, k, nums[4], nums[5]); err != nil {
			fmt.Fprintln(out, err)
		}
	}
	return sc.Err()
}

func kindByName(s string) (stq.Kind, error) {
	for _, k := range []stq.Kind{stq.Snapshot, stq.Static, stq.Transient} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown kind %q", s)
}

func boundByName(s string) (stq.Bound, error) {
	for _, b := range []stq.Bound{stq.Lower, stq.Upper} {
		if b.String() == s {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown bound %q", s)
}

func placementByName(s string) (stq.Placement, error) {
	for p := stq.PlacementUniform; p <= stq.PlacementQuadTree; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown placement %q", s)
}

func parseRect(s string) (stq.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return stq.Rect{}, fmt.Errorf("rect wants x1,y1,x2,y2, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return stq.Rect{}, fmt.Errorf("rect coordinate %q: %w", p, err)
		}
		v[i] = x
	}
	return geom.NewRect(geom.Pt(v[0], v[1]), geom.Pt(v[2], v[3])), nil
}
