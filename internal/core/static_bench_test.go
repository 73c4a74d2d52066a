package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/roadnet"
)

// staticBenchEnv is a store shaped like the repository benchmark's
// (benchmark/spec.go): a 16×16 city, one lap of 1000 objects floored to
// a 1 s tick and replayed back to back, HotKeep 64 / SealThreshold 256,
// rect regions of ≈30 cut roads, interval windows of 5–25 % of a lap —
// and long windows of 25–100 % of all six laps, the shape of a history
// query whose window holds many sealed blocks a direction and spans more
// ticks than the static kernel's grid path takes. warm seals after each
// of its six laps; offGrid is warm with every timestamp a third of a
// tick off the grid, so its runs seal raw and every window takes the
// static kernel's sort path; once replays twenty laps (≈ 1M events) and
// seals once at the end, as the repository benchmark's preload does,
// and is probed over onceWindows, the same windows spread over its
// twenty laps.
type staticBenchEnv struct {
	hot, warm, offGrid, once *core.Store
	regions                  []*core.Region
	windows, long            [][2]float64
	onceWindows              [][2]float64
}

// staticEnv is built once per test binary: every benchmark that reads
// it shares the ≈ 1.6M ingested events.
var staticEnv *staticBenchEnv

func newStaticBenchEnv(tb testing.TB) *staticBenchEnv {
	tb.Helper()
	if staticEnv == nil {
		staticEnv = buildStaticBenchEnv(tb)
	}
	return staticEnv
}

func buildStaticBenchEnv(tb testing.TB) *staticBenchEnv {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 16, NY: 16, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.1}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 1000, Horizon: 20000, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 300, LeaveProb: 0.5}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	lap := toCoreEvents(tb, wl)
	span := 0.0
	for i := range lap {
		lap[i].T = math.Floor(lap[i].T)
		span = math.Max(span, lap[i].T+1)
	}
	const laps, onceLaps = 6, 20
	env := &staticBenchEnv{hot: core.NewStore(w), warm: core.NewStore(w), offGrid: core.NewStore(w), once: core.NewStore(w)}
	for _, st := range []*core.Store{env.warm, env.offGrid, env.once} {
		if err := st.SetHistoryConfig(core.HistoryConfig{Tick: 1, HotKeep: 64, SealThreshold: 256}); err != nil {
			tb.Fatal(err)
		}
	}
	batch := make([]core.Event, len(lap))
	for l := 0; l < onceLaps; l++ {
		for i, ev := range lap {
			ev.T += float64(l) * span
			batch[i] = ev
		}
		stores := []*core.Store{env.once}
		if l < laps {
			stores = append(stores, env.hot, env.warm)
		}
		for _, st := range stores {
			if err := st.RecordBatch(batch); err != nil {
				tb.Fatal(err)
			}
		}
		if l < laps {
			for i := range batch {
				batch[i].T += 1.0 / 3
			}
			if err := env.offGrid.RecordBatch(batch); err != nil {
				tb.Fatal(err)
			}
			env.warm.SealColdPrefixes()
			env.offGrid.SealColdPrefixes()
		}
	}
	env.once.SealColdPrefixes()
	for _, st := range []*core.Store{env.warm, env.offGrid, env.once} {
		if m := st.Memory(); 2*m.SealedEvents < m.Events {
			tb.Fatalf("only %d of %d events sealed", m.SealedEvents, m.Events)
		}
	}
	if n := env.once.NumEvents(); n < 1_000_000 {
		tb.Fatalf("the sealed-once store holds %d events, want ≥ 1M", n)
	}
	b := w.Bounds()
	for i := 0; i < 64; i++ {
		fw, fh := (0.2+0.6*rng.Float64())*b.Width(), (0.2+0.6*rng.Float64())*b.Height()
		rect := geom.RectWH(b.Min.X+rng.Float64()*(b.Width()-fw), b.Min.Y+rng.Float64()*(b.Height()-fh), fw, fh)
		r, err := core.NewRegion(w, w.JunctionsIn(rect))
		if err != nil {
			tb.Fatal(err)
		}
		r.CutRoads()
		env.regions = append(env.regions, r)
		win := span * (0.05 + 0.20*rng.Float64())
		t1 := math.Floor(rng.Float64() * (laps*span - win))
		env.windows = append(env.windows, [2]float64{t1, t1 + math.Floor(win)})
		t1 = math.Floor(rng.Float64() * (onceLaps*span - win))
		env.onceWindows = append(env.onceWindows, [2]float64{t1, t1 + math.Floor(win)})
	}
	for range env.regions {
		win := laps * span * (0.25 + 0.75*rng.Float64())
		t1 := math.Floor(rng.Float64() * (laps*span - win))
		env.long = append(env.long, [2]float64{t1, t1 + math.Floor(win)})
	}
	for i, r := range env.regions {
		if win := env.windows[i]; core.OnGrid(env.offGrid, r.Perimeter(), win[0], win[1]) {
			tb.Fatalf("window %v of the off-grid store takes the grid path", win)
		}
		if win := env.long[i]; core.OnGrid(env.warm, r.Perimeter(), win[0], win[1]) {
			tb.Fatalf("long window %v takes the grid path", win)
		}
	}
	return env
}

// BenchmarkStaticCount measures the exact static kernel on hot-only and
// sealed history against the gather-sort-scan it replaced (kept as the
// tests' reference), with the snapshot and transient kernels on the
// same data for scale; tier/long/… repeats the first three over the
// long windows, where the kernel's cost is linear in the window's
// events and the sort path answers; offgrid/… runs the first four on
// the off-grid store, where the sort path answers every window; once/…
// runs them on the store sealed once, over its own windows. Run with
// -benchmem: the kernel is 0 allocs/op.
func BenchmarkStaticCount(b *testing.B) {
	env := newStaticBenchEnv(b)
	for _, tier := range []struct {
		name    string
		st      *core.Store
		windows [][2]float64
		long    bool
	}{{"hot", env.hot, env.windows, true}, {"warm", env.warm, env.windows, true}, {"offgrid", env.offGrid, env.windows, false}, {"once", env.once, env.onceWindows, false}} {
		st := tier.st
		run := func(name string, windows [][2]float64, f func(r *core.Region, t1, t2 float64) float64) {
			b.Run(tier.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					win := windows[i%len(windows)]
					sinkF = f(env.regions[i%len(env.regions)], win[0], win[1])
				}
			})
		}
		kernel := func(r *core.Region, t1, t2 float64) float64 { return core.StaticCount(st, r, t1, t2) }
		reference := func(r *core.Region, t1, t2 float64) float64 { return core.StaticCountReference(st, r, t1, t2) }
		transient := func(r *core.Region, t1, t2 float64) float64 { return core.TransientCount(st, r, t1, t2) }
		run("kernel", tier.windows, kernel)
		run("reference", tier.windows, reference)
		run("transient", tier.windows, transient)
		run("snapshot", tier.windows, func(r *core.Region, t1, _ float64) float64 { return core.SnapshotCount(st, r, t1) })
		if !tier.long {
			continue
		}
		run("long/kernel", env.long, kernel)
		run("long/reference", env.long, reference)
		run("long/transient", env.long, transient)
	}
}
