package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Micro-benchmarks for the fast-path kernels, one per optimization
// level. Each fused variant is paired with the reference it replaced so
// `go test -bench` shows the speedup directly.

type benchEnv struct {
	w       *roadnet.World
	wl      *mobility.Workload
	st      *core.Store
	regions []*core.Region
	rects   []geom.Rect
}

func newBenchEnv(seed int64, nRegions int) *benchEnv {
	rng := rand.New(rand.NewSource(seed))
	w, err := roadnet.GridCity(
		roadnet.GridOpts{NX: 16, NY: 16, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.15}, rng)
	if err != nil {
		panic(err)
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 300, Horizon: 30000, TripsPerObject: 5,
		MeanSpeed: 10, MeanPause: 400, LeaveProb: 0.5, HotspotBias: 0.3}, rng)
	if err != nil {
		panic(err)
	}
	st := core.NewStore(w)
	if err := wl.Feed(st); err != nil {
		panic(err)
	}
	env := &benchEnv{w: w, wl: wl, st: st}
	b := w.Bounds()
	for i := 0; i < nRegions; i++ {
		wf := 0.3 + rng.Float64()*0.4
		hf := 0.3 + rng.Float64()*0.4
		rect := geom.RectWH(
			b.Min.X+rng.Float64()*b.Width()*(1-wf),
			b.Min.Y+rng.Float64()*b.Height()*(1-hf),
			b.Width()*wf, b.Height()*hf)
		r, err := core.NewRegion(w, w.JunctionsIn(rect))
		if err != nil {
			panic(err)
		}
		r.CutRoads() // pre-memoize: both variants then measure pure counting
		env.regions = append(env.regions, r)
		env.rects = append(env.rects, rect)
	}
	return env
}

var sinkF float64

// BenchmarkTransientQuery compares the fused single-pass transient
// kernel against the seed's two-snapshot reference on identical
// pre-built regions: on a never-sealed store over one 40 % window, and
// as sealed/… on the sealed store and the 5–25 %-of-a-lap windows of
// newStaticBenchEnv, the shape of the repository benchmark's queries.
func BenchmarkTransientQuery(b *testing.B) {
	env := newBenchEnv(1, 16)
	t1, t2 := env.wl.Horizon*0.3, env.wl.Horizon*0.7
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkF = core.TransientCount(env.st, env.regions[i%len(env.regions)], t1, t2)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkF = core.TransientCountReference(env.st, env.regions[i%len(env.regions)], t1, t2)
		}
	})
	benchSealed(b, core.TransientCount, core.TransientCountReference)
}

// BenchmarkSnapshotQuery: batched perimeter pass vs per-edge interface
// calls, one instant; sealed/… probes the sealed store at the start of
// each window, as the repository benchmark does.
func BenchmarkSnapshotQuery(b *testing.B) {
	env := newBenchEnv(2, 16)
	ts := env.wl.Horizon / 2
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkF = core.SnapshotCount(env.st, env.regions[i%len(env.regions)], ts)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkF = core.SnapshotCountReference(env.st, env.regions[i%len(env.regions)], ts)
		}
	})
	snapshot := func(f func(core.Counter, *core.Region, float64) float64) func(core.Counter, *core.Region, float64, float64) float64 {
		return func(c core.Counter, r *core.Region, t1, _ float64) float64 { return f(c, r, t1) }
	}
	benchSealed(b, snapshot(core.SnapshotCount), snapshot(core.SnapshotCountReference))
}

// benchSealed runs sealed/fused and sealed/reference over the store
// newStaticBenchEnv sealed after each lap, and sealed-once/… over the
// one it sealed once after twenty, each over its own windows.
func benchSealed(b *testing.B, fused, reference func(core.Counter, *core.Region, float64, float64) float64) {
	env := newStaticBenchEnv(b)
	for _, v := range []struct {
		name    string
		st      *core.Store
		windows [][2]float64
		f       func(core.Counter, *core.Region, float64, float64) float64
	}{
		{"sealed/fused", env.warm, env.windows, fused},
		{"sealed/reference", env.warm, env.windows, reference},
		{"sealed-once/fused", env.once, env.onceWindows, fused},
		{"sealed-once/reference", env.once, env.onceWindows, reference},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				win := v.windows[i%len(v.windows)]
				sinkF = v.f(v.st, env.regions[i%len(env.regions)], win[0], win[1])
			}
		})
	}
}

// BenchmarkStaticQuery: the sampled static count, a minimum over 16
// fused snapshot probes. Its fused-vs-reference ratio is
// BenchmarkSnapshotQuery's, probe for probe.
func BenchmarkStaticQuery(b *testing.B) {
	env := newBenchEnv(3, 16)
	t1, t2 := env.wl.Horizon*0.3, env.wl.Horizon*0.7
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = core.StaticCountSampled(env.st, env.regions[i%len(env.regions)], t1, t2, 16)
	}
}

var sinkN int

// BenchmarkRegionBuild: kd-tree-backed JunctionsIn + memoized perimeter
// construction, the per-query setup cost.
func BenchmarkRegionBuild(b *testing.B) {
	env := newBenchEnv(4, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rect := env.rects[i%len(env.rects)]
		r, err := core.NewRegion(env.w, env.w.JunctionsIn(rect))
		if err != nil {
			b.Fatal(err)
		}
		sinkN = len(r.CutRoads())
	}
}

// BenchmarkIngest compares one batch (one lock + one validation pass)
// against the per-event conveniences, which are batches of one,
// replaying the same workload into a fresh store each iteration. A
// fresh store has no published form for a write's touch to load, so
// batch is also the row that bypasses that mechanism; live/b… append
// batches at the head of a warm store, where it engages.
func BenchmarkIngest(b *testing.B) {
	live := newLiveEnv(b)
	for _, n := range []int{64, 8192, 65536} {
		b.Run(fmt.Sprintf("live/b%d", n), func(b *testing.B) { live.run(b, n) })
	}
	env := newBenchEnv(5, 1)
	// Pre-convert the workload once; both variants replay the same events.
	events := make([]core.Event, 0, len(env.wl.Events))
	for _, ev := range env.wl.Events {
		switch ev.Kind {
		case mobility.Enter:
			events = append(events, core.EnterEvent(ev.At, ev.T))
		case mobility.Move:
			events = append(events, core.MoveEvent(ev.Road, ev.From, ev.T))
		case mobility.Leave:
			events = append(events, core.LeaveEvent(ev.At, ev.T))
		}
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := core.NewStore(env.w)
			if err := st.RecordBatch(events); err != nil {
				b.Fatal(err)
			}
			sinkN = st.NumEvents()
		}
	})
	b.Run("perEvent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := core.NewStore(env.w)
			for _, ev := range events {
				var err error
				switch ev.Kind {
				case core.EventEnter:
					err = st.RecordEnter(ev.Gateway, ev.T)
				case core.EventMove:
					err = st.RecordMove(ev.Road, ev.From, ev.T)
				case core.EventLeave:
					err = st.RecordLeave(ev.Gateway, ev.T)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			sinkN = st.NumEvents()
		}
	})
}

// Live ingest: a warm store over a 64×64 grid, whose forms are too many
// for their tails to stay in L2 between two visits.
const (
	// liveWarm is the events every direction holds before timing starts.
	liveWarm = 4
	// liveRefresh is the rounds a warm store takes before it is rebuilt
	// off the clock, which bounds its memory however large b.N grows.
	liveRefresh = 16
)

// liveEnv holds one event per tracking-form direction of the world —
// both directions of every road and every gateway's world edge — and
// the order the stream visits them in: every round visits each
// direction once, in a fresh random order. Stream position k is
// round[order[k]] at time k, so every form is monotone, a direction is
// revisited only after about every other direction's tail has been
// touched, and no two rounds visit forms in an order the hardware
// prefetchers could learn.
type liveEnv struct {
	w     *roadnet.World
	round []core.Event
	order []int32
}

func newLiveEnv(b *testing.B) *liveEnv {
	rng := rand.New(rand.NewSource(6))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 64, NY: 64, Spacing: 50, Jitter: 0.2}, rng)
	if err != nil {
		b.Fatal(err)
	}
	round := make([]core.Event, 0, 2*w.NumTrackedEdges())
	for r := 0; r < w.NumRoads(); r++ {
		u, v := w.TrackedEnds(planar.EdgeID(r))
		round = append(round, core.MoveEvent(planar.EdgeID(r), u, 0), core.MoveEvent(planar.EdgeID(r), v, 0))
	}
	for _, g := range w.AscendingGateways() {
		round = append(round, core.EnterEvent(g, 0), core.LeaveEvent(g, 0))
	}
	order := make([]int32, 0, liveRefresh*len(round))
	for r := 0; r < liveRefresh; r++ {
		for _, i := range rng.Perm(len(round)) {
			order = append(order, int32(i))
		}
	}
	return &liveEnv{w: w, round: round, order: order}
}

// fill writes stream positions [k, k+len(dst)) into dst.
func (env *liveEnv) fill(dst []core.Event, k int) {
	for j := range dst {
		dst[j] = env.round[env.order[k+j]]
		dst[j].T = float64(k + j)
	}
}

// warm returns a store holding the first liveWarm rounds.
func (env *liveEnv) warm(b *testing.B) *core.Store {
	st := core.NewStore(env.w)
	buf := make([]core.Event, len(env.round))
	for r := 0; r < liveWarm; r++ {
		env.fill(buf, r*len(env.round))
		if err := st.RecordBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// run times b.N batches of n events at the head of a warm store.
func (env *liveEnv) run(b *testing.B, n int) {
	b.ReportAllocs()
	batch := make([]core.Event, n)
	var st *core.Store
	k := 0
	for i := 0; i < b.N; i++ {
		if st == nil || k+n > liveRefresh*len(env.round) {
			b.StopTimer()
			st, k = env.warm(b), liveWarm*len(env.round)
			b.StartTimer()
		}
		env.fill(batch, k)
		k += n
		if err := st.RecordBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	sinkN = st.NumEvents()
}
