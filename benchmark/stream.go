package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	stq "repro"
	"repro/internal/mobility"
	"repro/internal/roadnet"
)

// opKind is one of the four request shapes. The three query kinds share
// their values with stq.Kind so opKind(q.Kind) is a no-op conversion.
type opKind uint8

const (
	opSnapshot opKind = iota
	opStatic
	opTransient
	opIngest
	numOpKinds
)

var opKindNames = [numOpKinds]string{"snapshot", "static", "transient", "ingest"}

// answer is everything a query response carries that the oracle pins.
// It is comparable, so checking a response is one ==.
type answer struct {
	Count         float64
	Missed        bool
	RegionFaces   int
	NodesAccessed int
	Messages      int
	Hops          int
	TotalHops     int
	EdgesAccessed int
}

// op is one entry of a client's cyclic stream. Ingest ops carry no
// payload: the batch is the next batchEvents events of the client's
// stripe, shifted past everything already sent (inputs.nextBatch).
type op struct {
	kind opKind
	q    stq.Query
	want answer // reference answer, filled by the oracle
}

// clientStream is one closed-loop client's input: a cyclic op list and
// the ingest stripe (events of roads/gateways with id mod C == client)
// of one base lap, in time order.
type clientStream struct {
	ops    []op
	stripe []stq.Event
}

// datasetSeed fixes what every run shares: the city, one lap of traffic
// over it, the sensor placement and the hot rects. --seed varies only
// the request stream drawn over that dataset (op order, query kinds and
// times, which hot rect, every cold rect). A different city per seed
// would make the work per request differ from seed to seed by more than
// the bounds the metrics are held to — the benchmark would be measuring
// its inputs.
const datasetSeed = 1

// inputs is everything a run is driven with, a pure function of
// (seed, scale, workload).
type inputs struct {
	seed     int64
	sc       scale
	spec     workloadSpec
	gridOpts stq.GridOpts
	// base is one lap of crossing events in time order, timestamps
	// floored to the history tick (sensors stamp whole seconds; off-grid
	// timestamps would force raw, uncompressed segments and wire frames).
	base []stq.Event
	// lapSpan shifts lap l by l·lapSpan, past every event of lap l−1,
	// which keeps every edge's stream monotone across laps.
	lapSpan     float64
	preloadLaps int
	// horizon is the end of the preload: queries draw T1,T2 inside
	// [0, horizon) and live ingest is stamped at or after it, so every
	// answer is a function of the preload alone.
	horizon float64
	clients []clientStream
}

// gridOptsFor is the world of the issue's load shape at the given side.
func gridOptsFor(side int) stq.GridOpts {
	return stq.GridOpts{NX: side, NY: side, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.1}
}

// buildWorld generates the dataset's city. cluster.GridSpec(opts,
// datasetSeed) materializes the same world, which is what lets the
// routed deployment share streams and reference answers with the
// others.
func buildWorld(opts stq.GridOpts) (*roadnet.World, error) {
	return roadnet.GridCity(opts, rand.New(rand.NewSource(datasetSeed)))
}

// generateInputs derives the dataset from datasetSeed and every
// client's request stream from seed. Reference answers are left zero;
// see oracle.fill.
func generateInputs(seed int64, sc scale, spec workloadSpec, clients int) (*inputs, error) {
	in := &inputs{seed: seed, sc: sc, spec: spec, gridOpts: gridOptsFor(sc.grid)}
	w, err := buildWorld(in.gridOpts)
	if err != nil {
		return nil, err
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: sc.objects, Horizon: sc.lapHorizon, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 300, LeaveProb: 0.5,
	}, rand.New(rand.NewSource(datasetSeed+1)))
	if err != nil {
		return nil, err
	}
	in.base = make([]stq.Event, 0, len(wl.Events))
	in.clients = make([]clientStream, clients)
	maxT := 0.0
	for _, ev := range wl.Events {
		t := math.Floor(ev.T/historyTick) * historyTick
		var e stq.Event
		var key int
		switch ev.Kind {
		case mobility.Move:
			e, key = stq.MoveEvent(ev.Road, ev.From, t), int(ev.Road)
		case mobility.Enter:
			e, key = stq.EnterEvent(ev.At, t), int(ev.At)
		case mobility.Leave:
			e, key = stq.LeaveEvent(ev.At, t), int(ev.At)
		default:
			return nil, fmt.Errorf("unknown mobility event kind %d", ev.Kind)
		}
		in.base = append(in.base, e)
		c := &in.clients[key%clients]
		c.stripe = append(c.stripe, e)
		if t > maxT {
			maxT = t
		}
	}
	if len(in.base) == 0 {
		return nil, fmt.Errorf("empty base workload")
	}
	for i := range in.clients {
		if len(in.clients[i].stripe) == 0 {
			return nil, fmt.Errorf("client %d has an empty ingest stripe", i)
		}
	}
	in.lapSpan = maxT + historyTick
	in.preloadLaps = (sc.preloadEvents + len(in.base) - 1) / len(in.base)
	in.horizon = float64(in.preloadLaps) * in.lapSpan

	b := w.Bounds()
	randRect := func(rng *rand.Rand) stq.Rect {
		fw := (0.2 + 0.6*rng.Float64()) * b.Width()
		fh := (0.2 + 0.6*rng.Float64()) * b.Height()
		x := b.Min.X + rng.Float64()*(b.Width()-fw)
		y := b.Min.Y + rng.Float64()*(b.Height()-fh)
		return stq.Rect{Min: stq.Point{X: x, Y: y}, Max: stq.Point{X: x + fw, Y: y + fh}}
	}
	rng := rand.New(rand.NewSource(datasetSeed + 2))
	hot := make([]stq.Rect, hotRects)
	for i := range hot {
		hot[i] = randRect(rng)
	}
	rng = rand.New(rand.NewSource(seed)) // everything below is the request stream
	for i := range in.clients {
		kinds := opMix(sc.poolOps, spec.queryFrac, rng)
		// Every kind visits the hot rects equally often, in a shuffled
		// order: a rect's perimeter sets a query's cost, and a seed that
		// happened to favour the long ones would measure its own draw.
		var rectOrder [numOpKinds][]int
		var rectNext [numOpKinds]int
		for k := range rectOrder {
			rectOrder[k] = rng.Perm(len(hot))
		}
		ops := make([]op, sc.poolOps)
		for j, kind := range kinds {
			o := op{kind: kind}
			if kind == opIngest {
				ops[j] = o
				continue
			}
			if spec.hot {
				o.q.Rect = hot[rectOrder[kind][rectNext[kind]%len(hot)]]
				rectNext[kind]++
			} else {
				o.q.Rect = randRect(rng)
			}
			// Interval queries span 5–25% of a lap: static cost grows with
			// the events inside the window, and this keeps it within an
			// order of magnitude of the other kinds.
			win := in.lapSpan * (0.05 + 0.20*rng.Float64())
			o.q.T1 = math.Floor(rng.Float64() * (in.horizon - win))
			o.q.T2 = o.q.T1 + math.Floor(win)
			o.q.Kind = stq.Kind(kind)
			ops[j] = o
		}
		in.clients[i].ops = ops
	}
	return in, nil
}

// opMix returns n op kinds in shuffled order with exact proportions:
// queryFrac queries, split 40/20/40 snapshot/static/transient, the rest
// ingest. Exact, not drawn: ingest is an order of magnitude cheaper
// than a query, so a seed whose draw held 9% or 11% ingest would move
// ops_per_s and ingest_events_per_s by its draw alone.
func opMix(n int, queryFrac float64, rng *rand.Rand) []opKind {
	queries := int(math.Round(float64(n) * queryFrac))
	snapshots := int(math.Round(float64(queries) * 0.4))
	statics := int(math.Round(float64(queries) * 0.2))
	kinds := make([]opKind, n)
	for i := range kinds {
		switch {
		case i < snapshots:
			kinds[i] = opSnapshot
		case i < snapshots+statics:
			kinds[i] = opStatic
		case i < queries:
			kinds[i] = opTransient
		default:
			kinds[i] = opIngest
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// preloadLap returns lap l of the preload in dst (reused across calls).
func (in *inputs) preloadLap(l int, dst []stq.Event) []stq.Event {
	dst = dst[:0]
	off := float64(l) * in.lapSpan
	for _, e := range in.base {
		e.T += off
		dst = append(dst, e)
	}
	return dst
}

// preloadEventCount is the exact event count of the preload.
func (in *inputs) preloadEventCount() int { return in.preloadLaps * len(in.base) }

// feedPreload ingests the whole preload through record in bounded
// batches, keeping only events keep accepts (nil keeps all).
func (in *inputs) feedPreload(record func([]stq.Event) error, keep func(stq.Event) bool) error {
	const chunk = 8192
	var lap, sub []stq.Event
	for l := 0; l < in.preloadLaps; l++ {
		lap = in.preloadLap(l, lap)
		src := lap
		if keep != nil {
			sub = sub[:0]
			for _, e := range lap {
				if keep(e) {
					sub = append(sub, e)
				}
			}
			src = sub
		}
		for i := 0; i < len(src); i += chunk {
			j := i + chunk
			if j > len(src) {
				j = len(src)
			}
			if err := record(src[i:j]); err != nil {
				return fmt.Errorf("preload lap %d: %w", l, err)
			}
		}
	}
	return nil
}

// nextBatch returns a client's next ingest batch: up to n events of its
// stripe from cursor, shifted lap·lapSpan past the preload. A batch
// never spans two laps, so it is monotone per edge by construction, and
// the cursor state lives in the caller so a fresh run starts at lap 0
// of a fresh deployment.
func (in *inputs) nextBatch(client int, cursor, lap *int, n int, dst []stq.Event) []stq.Event {
	stripe := in.clients[client].stripe
	if *cursor >= len(stripe) {
		*cursor = 0
		*lap++
	}
	hi := *cursor + n
	if hi > len(stripe) {
		hi = len(stripe)
	}
	off := float64(in.preloadLaps+*lap) * in.lapSpan
	dst = dst[:0]
	for _, e := range stripe[*cursor:hi] {
		e.T += off
		dst = append(dst, e)
	}
	*cursor = hi
	return dst
}

// streamHash fingerprints everything generateInputs derived from the
// seed: the base lap, the lap geometry, and every client's ops.
func (in *inputs) streamHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(len(in.base)))
	for _, e := range in.base {
		f64(e.T)
		u64(uint64(e.Kind))
		u64(uint64(e.Road))
		u64(uint64(e.From))
		u64(uint64(e.Gateway))
	}
	f64(in.lapSpan)
	u64(uint64(in.preloadLaps))
	for _, c := range in.clients {
		u64(uint64(len(c.stripe)))
		for _, o := range c.ops {
			u64(uint64(o.kind))
			f64(o.q.Rect.Min.X)
			f64(o.q.Rect.Min.Y)
			f64(o.q.Rect.Max.X)
			f64(o.q.Rect.Max.Y)
			f64(o.q.T1)
			f64(o.q.T2)
		}
	}
	return h.Sum64()
}
