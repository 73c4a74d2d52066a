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
// query whose window holds many sealed blocks a direction.
type staticBenchEnv struct {
	hot, warm     *core.Store
	regions       []*core.Region
	windows, long [][2]float64
}

func newStaticBenchEnv(tb testing.TB) *staticBenchEnv {
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
	const laps = 6
	env := &staticBenchEnv{hot: core.NewStore(w), warm: core.NewStore(w)}
	if err := env.warm.SetHistoryConfig(core.HistoryConfig{Tick: 1, HotKeep: 64, SealThreshold: 256}); err != nil {
		tb.Fatal(err)
	}
	for l := 0; l < laps; l++ {
		batch := make([]core.Event, len(lap))
		for i, ev := range lap {
			ev.T += float64(l) * span
			batch[i] = ev
		}
		for _, st := range []*core.Store{env.hot, env.warm} {
			if err := st.RecordBatch(batch); err != nil {
				tb.Fatal(err)
			}
		}
		env.warm.SealColdPrefixes()
	}
	if m := env.warm.Memory(); 2*m.SealedEvents < m.Events {
		tb.Fatalf("only %d of %d events sealed", m.SealedEvents, m.Events)
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
	}
	for range env.regions {
		win := laps * span * (0.25 + 0.75*rng.Float64())
		t1 := math.Floor(rng.Float64() * (laps*span - win))
		env.long = append(env.long, [2]float64{t1, t1 + math.Floor(win)})
	}
	return env
}

// BenchmarkStaticCount measures the exact static kernel on hot-only and
// sealed history against the gather-sort-scan it replaced (kept as the
// tests' reference), with the snapshot and transient kernels on the
// same data for scale; tier/long/… repeats the first three over the
// long windows, where the kernel's cost is linear in the window's
// events. Run with -benchmem: the kernel is 0 allocs/op.
func BenchmarkStaticCount(b *testing.B) {
	env := newStaticBenchEnv(b)
	for _, tier := range []struct {
		name string
		st   *core.Store
	}{{"hot", env.hot}, {"warm", env.warm}} {
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
		run("kernel", env.windows, kernel)
		run("reference", env.windows, reference)
		run("transient", env.windows, transient)
		run("snapshot", env.windows, func(r *core.Region, t1, _ float64) float64 { return core.SnapshotCount(st, r, t1) })
		run("long/kernel", env.long, kernel)
		run("long/reference", env.long, reference)
		run("long/transient", env.long, transient)
	}
}
