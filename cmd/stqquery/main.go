// Command stqquery loads a world bundle produced by stqgen and answers
// ad-hoc spatiotemporal range count queries over it, optionally on a
// sampled sensor subset.
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
// Durable state (-state): the bundle's events are ingested once into a
// write-ahead-logged, checkpointed store rooted at the given directory;
// later invocations recover the counts from disk instead of re-reading
// the bundle's event stream:
//
//	stqquery -in world.json -state ./qstate -kind snapshot -rect 0,0,500,500 -t1 7200
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	stq "repro"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sampled"
	"repro/internal/sampling"
	"repro/internal/worldio"

	"math/rand"
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
		obs.Enable()
		defer func() {
			if err := obs.Default.WritePrometheus(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "stqquery: metrics:", err)
			}
		}()
	}
	var err error
	if *state != "" {
		err = runDurable(*state, *in, *kind, *rectSpec, *t1, *t2, *sensors, *placement, *bound, *seed, *repl)
	} else {
		err = run(*in, *kind, *rectSpec, *t1, *t2, *sensors, *placement, *bound, *seed, *repl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stqquery:", err)
		os.Exit(1)
	}
}

// runDurable serves queries from a durable system rooted at stateDir.
// The first invocation ingests the bundle's workload and checkpoints
// it; every later invocation recovers the counts from the state
// directory and skips bundle ingestion entirely.
func runDurable(stateDir, in, kindName, rectSpec string, t1, t2 float64, sensors int, placement, boundName string, seed int64, repl bool) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	world, wl, err := worldio.Load(f)
	if err != nil {
		return err
	}
	sys, err := stq.OpenDurable(world, stq.Durability{Dir: stateDir})
	if err != nil {
		return err
	}
	defer sys.Close()
	if sys.NumEvents() == 0 {
		if err := sys.Ingest(wl); err != nil {
			return err
		}
		if err := sys.Checkpoint(); err != nil {
			return err
		}
		fmt.Printf("state %s initialized: %d events ingested and checkpointed\n", stateDir, sys.NumEvents())
	} else {
		fmt.Printf("state %s recovered: %d events (bundle event stream skipped)\n", stateDir, sys.NumEvents())
	}
	fmt.Printf("loaded %s: %d junctions, horizon %.0fs\n", in, world.NumJunctions(), wl.Horizon)

	if sensors > 0 {
		p, err := placementByName(placement)
		if err != nil {
			return err
		}
		if err := sys.PlaceSensors(p, sensors, seed); err != nil {
			return err
		}
		fmt.Printf("sampled graph: %d communication sensors\n", sys.NumCommunicationSensors())
	}
	bound := sampled.Lower
	if boundName == "upper" {
		bound = sampled.Upper
	} else if boundName != "lower" {
		return fmt.Errorf("unknown bound %q", boundName)
	}
	ask := func(rect geom.Rect, k query.Kind, t1, t2 float64) error {
		resp, err := sys.Query(stq.Query{Rect: rect, T1: t1, T2: t2, Kind: k, Bound: bound})
		if err != nil {
			return err
		}
		if resp.Missed {
			fmt.Printf("%s: MISS (sampled graph does not cover the region)\n", k)
			return nil
		}
		fmt.Printf("%s: count=%.0f  faces=%d  sensors=%d  messages=%d  hops=%d  edges=%d\n",
			k, resp.Count, resp.RegionFaces,
			resp.NodesAccessed, resp.Messages, resp.Hops, resp.EdgesAccessed)
		return nil
	}
	if repl {
		return replLoop(ask)
	}
	if rectSpec == "" {
		return fmt.Errorf("-rect required (or use -repl)")
	}
	rect, err := parseRect(rectSpec)
	if err != nil {
		return err
	}
	k, err := kindByName(kindName)
	if err != nil {
		return err
	}
	return ask(rect, k, t1, t2)
}

func placementByName(s string) (stq.Placement, error) {
	switch s {
	case "uniform":
		return stq.PlacementUniform, nil
	case "systematic":
		return stq.PlacementSystematic, nil
	case "stratified":
		return stq.PlacementStratified, nil
	case "kdtree":
		return stq.PlacementKDTree, nil
	case "quadtree":
		return stq.PlacementQuadTree, nil
	}
	return 0, fmt.Errorf("unknown placement %q", s)
}

func run(in, kindName, rectSpec string, t1, t2 float64, sensors int, placement, boundName string, seed int64, repl bool) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	world, wl, err := worldio.Load(f)
	if err != nil {
		return err
	}
	store := core.NewStore(world)
	if err := wl.Feed(store); err != nil {
		return err
	}
	fmt.Printf("loaded %s: %d junctions, %d events, horizon %.0fs\n",
		in, world.NumJunctions(), store.NumEvents(), wl.Horizon)

	eng := query.NewEngine(world, store)
	if sensors > 0 {
		smp, err := samplerByName(placement)
		if err != nil {
			return err
		}
		cands := sampling.CandidatesFromDual(world.Dual.InteriorNodes(), world.Dual.G.Point)
		sel, err := smp.Sample(cands, sensors, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		sg, err := sampled.Build(world, sel, sampled.Options{Connect: sampled.Triangulation})
		if err != nil {
			return err
		}
		eng = query.NewSampledEngine(sg, store)
		fmt.Printf("sampled graph: %d communication sensors, %d monitored roads, %d faces\n",
			sg.NumSensors(), len(sg.MonitoredRoads), sg.NumClusters())
	}

	bound := sampled.Lower
	if boundName == "upper" {
		bound = sampled.Upper
	} else if boundName != "lower" {
		return fmt.Errorf("unknown bound %q", boundName)
	}

	if repl {
		return replLoop(func(rect geom.Rect, k query.Kind, t1, t2 float64) error {
			return answer(eng, query.Request{Rect: rect, T1: t1, T2: t2, Kind: k, Bound: bound})
		})
	}
	if rectSpec == "" {
		return fmt.Errorf("-rect required (or use -repl)")
	}
	rect, err := parseRect(rectSpec)
	if err != nil {
		return err
	}
	k, err := kindByName(kindName)
	if err != nil {
		return err
	}
	return answer(eng, query.Request{Rect: rect, T1: t1, T2: t2, Kind: k, Bound: bound})
}

// replLoop reads one query per stdin line and hands it to ask; both the
// engine-backed and durable-system paths serve through it.
func replLoop(ask func(rect geom.Rect, k query.Kind, t1, t2 float64) error) error {
	fmt.Println("enter queries: <kind> <x1> <y1> <x2> <y2> <t1> <t2>   (EOF to quit)")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 7 {
			fmt.Println("want: kind x1 y1 x2 y2 t1 t2")
			continue
		}
		k, err := kindByName(fields[0])
		if err != nil {
			fmt.Println(err)
			continue
		}
		var nums [6]float64
		bad := false
		for i, s := range fields[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				fmt.Printf("bad number %q\n", s)
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
			fmt.Println(err)
		}
	}
	return sc.Err()
}

func answer(eng *query.Engine, req query.Request) error {
	resp, err := eng.Query(req)
	if err != nil {
		return err
	}
	if resp.Missed {
		fmt.Printf("%s: MISS (sampled graph does not cover the region; %d faces requested)\n",
			req.Kind, resp.ExactRegionSize)
		return nil
	}
	fmt.Printf("%s: count=%.0f  faces=%d/%d  sensors=%d  messages=%d  hops=%d  edges=%d\n",
		req.Kind, resp.Count, resp.Region.Size(), resp.ExactRegionSize,
		resp.Net.NodesAccessed, resp.Net.Messages, resp.Net.Hops, resp.EdgesAccessed)
	return nil
}

func kindByName(s string) (query.Kind, error) {
	switch s {
	case "snapshot":
		return query.Snapshot, nil
	case "static":
		return query.Static, nil
	case "transient":
		return query.Transient, nil
	}
	return 0, fmt.Errorf("unknown kind %q", s)
}

func samplerByName(s string) (sampling.Sampler, error) {
	switch s {
	case "uniform":
		return sampling.Uniform{}, nil
	case "systematic":
		return sampling.Systematic{}, nil
	case "stratified":
		return sampling.Stratified{}, nil
	case "kdtree":
		return sampling.KDTreeSampler{Randomized: true}, nil
	case "quadtree":
		return sampling.QuadTreeSampler{Randomized: true}, nil
	}
	return nil, fmt.Errorf("unknown placement %q", s)
}

func parseRect(s string) (geom.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geom.Rect{}, fmt.Errorf("rect wants x1,y1,x2,y2, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geom.Rect{}, fmt.Errorf("rect coordinate %q: %w", p, err)
		}
		v[i] = x
	}
	return geom.NewRect(geom.Pt(v[0], v[1]), geom.Pt(v[2], v[3])), nil
}
