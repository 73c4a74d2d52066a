// Command stqviz renders a world bundle (from stqgen) to SVG, optionally
// overlaying a sensor placement and a query region — the paper's
// Figure 4 view for your own data.
//
// Usage:
//
//	stqviz -in world.json -out city.svg
//	stqviz -in world.json -sensors 64 -placement quadtree -out placed.svg
//	stqviz -in world.json -sensors 64 -rect 200,200,900,900 -out query.svg
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sampled"
	"repro/internal/sampling"
	"repro/internal/viz"
	"repro/internal/worldio"
)

func main() {
	var (
		in        = flag.String("in", "world.json", "input bundle from stqgen")
		out       = flag.String("out", "world.svg", "output SVG file")
		sensors   = flag.Int("sensors", 0, "overlay a placement of this many sensors (0 = none)")
		placement = flag.String("placement", "quadtree", "uniform | systematic | stratified | kdtree | quadtree")
		rectSpec  = flag.String("rect", "", "overlay query rectangle: x1,y1,x2,y2")
		bound     = flag.String("bound", "lower", "lower | upper region approximation")
		seed      = flag.Int64("seed", 1, "placement seed")
		width     = flag.Int("width", 900, "SVG width in pixels")
	)
	flag.Parse()
	if err := run(*in, *out, *sensors, *placement, *rectSpec, *bound, *seed, *width); err != nil {
		fmt.Fprintln(os.Stderr, "stqviz:", err)
		os.Exit(1)
	}
}

func run(in, out string, sensors int, placement, rectSpec, boundName string, seed int64, width int) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	world, _, err := worldio.Load(f)
	if err != nil {
		return err
	}
	style := viz.DefaultStyle()
	style.Width = width

	var sg *sampled.Graph
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
		sg, err = sampled.Build(world, sel, sampled.Options{Connect: sampled.Triangulation})
		if err != nil {
			return err
		}
	}
	var rectPtr *geom.Rect
	var region *core.Region
	if rectSpec != "" {
		rect, err := parseRect(rectSpec)
		if err != nil {
			return err
		}
		rectPtr = &rect
		if sg != nil {
			b := sampled.Lower
			if boundName == "upper" {
				b = sampled.Upper
			}
			var miss bool
			if region, _, miss, err = sg.ApproximateRect(rect, b); err != nil {
				return err
			}
			if miss {
				fmt.Println("note: the sampled graph misses this region (lower approximation empty)")
			}
		} else if region, err = core.NewRegion(world, world.JunctionsIn(rect)); err != nil {
			return err
		}
	}
	of, err := os.Create(out)
	if err != nil {
		return err
	}
	defer of.Close()
	if err := viz.RenderWorld(of, world, sg, rectPtr, region, style); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d junctions", out, world.NumJunctions())
	if sg != nil {
		fmt.Printf(", %d sensors", sg.NumSensors())
	}
	fmt.Println(")")
	return of.Sync()
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
