// Package mobility is the moving-object substrate: it generates synthetic
// trips over a road network (standing in for the paper's T-Drive/GeoLife
// trajectories), converts them into the edge-crossing event streams the
// framework consumes, and provides an exact occupancy oracle used as
// ground truth by the tests and experiments.
package mobility

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// EventKind distinguishes the three crossing-event types.
type EventKind uint8

// Crossing event kinds.
const (
	// Enter is a world-entry at a gateway (from ★v_ext).
	Enter EventKind = iota
	// Move is a road traversal between two junctions.
	Move
	// Leave is a world-exit at a gateway (to ★v_ext).
	Leave
)

// Event is one atomic movement of one object. Events carry the object ID
// only for ground-truth purposes; the framework's stores never see it.
type Event struct {
	Obj  int
	T    float64
	Kind EventKind
	// Road and From are set for Move events: the object traverses Road
	// starting at junction From, arriving at the opposite endpoint at
	// time T (the crossing time of the dual sensing edge).
	Road planar.EdgeID
	From planar.NodeID
	// At is the junction for Enter/Leave events, and the arrival junction
	// for Move events.
	At planar.NodeID
}

// Workload is a time-ordered stream of events over a world.
type Workload struct {
	W      *roadnet.World
	Events []Event
	// Horizon is the generation time span [0, Horizon].
	Horizon float64
	// Objects is the number of distinct objects.
	Objects int
}

// Opts configures Generate.
type Opts struct {
	// Objects is the number of moving objects.
	Objects int
	// Horizon is the time span of the workload in seconds.
	Horizon float64
	// TripsPerObject is the mean number of trips each object makes while
	// in the world.
	TripsPerObject int
	// MeanSpeed is the mean travel speed in coordinate units per second.
	// Per-object speeds vary ±40%.
	MeanSpeed float64
	// MeanPause is the mean dwell time at a trip destination in seconds.
	MeanPause float64
	// LeaveProb is the probability that an object exits the world after
	// finishing its trips (otherwise it stays until the horizon).
	LeaveProb float64
	// HotspotBias in [0,1) skews destination choice toward a city-centre
	// hotspot, mimicking the non-uniform density of real taxi data.
	HotspotBias float64
}

// DefaultOpts returns the workload configuration used by the experiment
// harness: a 7-day horizon matching the paper's temporal query ranges.
func DefaultOpts() Opts {
	return Opts{
		Objects:        600,
		Horizon:        7 * 24 * 3600,
		TripsPerObject: 6,
		MeanSpeed:      12,
		MeanPause:      1800,
		LeaveProb:      0.6,
		HotspotBias:    0.5,
	}
}

// Generate produces a workload of Opts.Objects objects entering the world
// through random gateways at staggered times, travelling shortest paths
// between successive destinations, pausing, and finally leaving through a
// gateway (realizing the ★v_ext lifecycle). Events are returned globally
// sorted by time.
func Generate(w *roadnet.World, opts Opts, rng *rand.Rand) (*Workload, error) {
	if opts.Objects <= 0 {
		return nil, fmt.Errorf("mobility: need at least one object")
	}
	if len(w.Gateways) == 0 {
		return nil, fmt.Errorf("mobility: world has no gateways")
	}
	if opts.MeanSpeed <= 0 {
		return nil, fmt.Errorf("mobility: mean speed must be positive, got %v", opts.MeanSpeed)
	}
	center := w.Bounds().Center()
	// Rank junctions by distance to centre for hotspot-biased choice.
	byCenter := make([]planar.NodeID, w.Star.NumNodes())
	for i := range byCenter {
		byCenter[i] = planar.NodeID(i)
	}
	sort.Slice(byCenter, func(i, j int) bool {
		return w.Star.Point(byCenter[i]).Dist2(center) < w.Star.Point(byCenter[j]).Dist2(center)
	})
	pickDest := func() planar.NodeID {
		if rng.Float64() < opts.HotspotBias {
			// Quadratic bias toward the centre-most junctions.
			f := rng.Float64()
			return byCenter[int(f*f*float64(len(byCenter)))]
		}
		return planar.NodeID(rng.Intn(w.Star.NumNodes()))
	}

	wl := &Workload{W: w, Horizon: opts.Horizon, Objects: opts.Objects}
	for obj := 0; obj < opts.Objects; obj++ {
		speed := opts.MeanSpeed * (0.6 + 0.8*rng.Float64())
		t := rng.Float64() * opts.Horizon * 0.5
		gate := w.Gateways[rng.Intn(len(w.Gateways))]
		wl.Events = append(wl.Events, Event{Obj: obj, T: t, Kind: Enter, At: gate})
		cur := gate
		trips := 1 + rng.Intn(2*opts.TripsPerObject)
		alive := true
		for trip := 0; trip < trips && alive; trip++ {
			dest := pickDest()
			if dest == cur {
				continue
			}
			nodes, edges, ok := planar.DijkstraTo(w.Star, cur, dest)
			if !ok {
				continue
			}
			for i, e := range edges {
				t += w.Star.Edge(e).Weight / speed
				if t > opts.Horizon {
					alive = false
					break
				}
				wl.Events = append(wl.Events, Event{
					Obj: obj, T: t, Kind: Move, Road: e, From: nodes[i], At: nodes[i+1],
				})
				cur = nodes[i+1]
			}
			if !alive {
				break
			}
			t += rng.ExpFloat64() * opts.MeanPause
			if t > opts.Horizon {
				alive = false
			}
		}
		if alive && rng.Float64() < opts.LeaveProb {
			// Head to the nearest gateway and exit.
			exit := nearestGateway(w, cur)
			nodes, edges, ok := planar.DijkstraTo(w.Star, cur, exit)
			if ok {
				for i, e := range edges {
					t += w.Star.Edge(e).Weight / speed
					if t > opts.Horizon {
						alive = false
						break
					}
					wl.Events = append(wl.Events, Event{
						Obj: obj, T: t, Kind: Move, Road: e, From: nodes[i], At: nodes[i+1],
					})
					cur = nodes[i+1]
				}
				// Exit strictly after arrival so per-object event times
				// are unambiguous.
				t += 1 + rng.Float64()*10
				if alive && cur == exit && t <= opts.Horizon {
					wl.Events = append(wl.Events, Event{Obj: obj, T: t, Kind: Leave, At: exit})
				}
			}
		}
	}
	sort.SliceStable(wl.Events, func(i, j int) bool { return wl.Events[i].T < wl.Events[j].T })
	return wl, nil
}

func nearestGateway(w *roadnet.World, from planar.NodeID) planar.NodeID {
	best := w.Gateways[0]
	bd := w.Star.Point(from).Dist2(w.Star.Point(best))
	for _, g := range w.Gateways[1:] {
		if d := w.Star.Point(from).Dist2(w.Star.Point(g)); d < bd {
			bd = d
			best = g
		}
	}
	return best
}

// Recorder consumes crossing events in atomic, pre-ordered batches —
// the one ingest path of every store: core.Store, partition.Set and
// stq.System implement it.
type Recorder interface {
	RecordBatch(events []core.Event) error
}

// feedChunk bounds the conversion buffer of Feed; each chunk is one
// batch, so one lock acquisition on the store.
const feedChunk = 8192

// Feed replays the workload into a recorder in time order, in batches of
// feedChunk events. A refused batch is reported with the [lo,hi) range
// of the events it held.
func (wl *Workload) Feed(rec Recorder) error {
	buf := make([]core.Event, 0, feedChunk)
	for base := 0; base < len(wl.Events); base += feedChunk {
		hi := base + feedChunk
		if hi > len(wl.Events) {
			hi = len(wl.Events)
		}
		buf = buf[:0]
		for i, ev := range wl.Events[base:hi] {
			switch ev.Kind {
			case Enter:
				buf = append(buf, core.EnterEvent(ev.At, ev.T))
			case Leave:
				buf = append(buf, core.LeaveEvent(ev.At, ev.T))
			case Move:
				buf = append(buf, core.MoveEvent(ev.Road, ev.From, ev.T))
			default:
				return fmt.Errorf("mobility: feeding event %d: unknown event kind %d", base+i, ev.Kind)
			}
		}
		if err := rec.RecordBatch(buf); err != nil {
			return fmt.Errorf("mobility: feeding events [%d,%d): %w", base, hi, err)
		}
	}
	return nil
}

// Stats summarizes a workload.
type Stats struct {
	Events      int
	Moves       int
	Enters      int
	Leaves      int
	ActiveRoads int
}

// Stats computes summary statistics of the workload.
func (wl *Workload) Stats() Stats {
	var st Stats
	roads := make(map[planar.EdgeID]bool)
	st.Events = len(wl.Events)
	for _, ev := range wl.Events {
		switch ev.Kind {
		case Move:
			st.Moves++
			roads[ev.Road] = true
		case Enter:
			st.Enters++
		case Leave:
			st.Leaves++
		}
	}
	st.ActiveRoads = len(roads)
	return st
}
