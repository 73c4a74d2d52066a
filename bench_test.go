package stq

// Benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation (regenerating its series via internal/experiments), plus
// micro-benchmarks of the query path. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches report the wall time of regenerating the whole
// figure at the quick configuration; cmd/stqbench prints the actual
// series. Micro-benches measure per-query costs that Fig. 11d plots.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/learned"
	"repro/internal/query"
	"repro/internal/sampled"
	"repro/internal/sampling"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

func getBenchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		cfg := experiments.QuickConfig()
		cfg.Reps = 3
		cfg.QueriesPerRep = 5
		benchEnv, benchEnvErr = experiments.NewEnv(cfg)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// --- One benchmark per paper figure ---

func BenchmarkFig11aTransientErrVsGraphSize(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig11a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11bTransientErrVsQuerySize(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig11b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11cNodesAccessed(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig11c(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11dExecutionTime(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig11d(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11eStorageCDF(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig11e(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12aStaticErrVsGraphSize(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig12a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12bStaticErrVsQuerySize(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig12b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13abQueryMisses(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Fig13ab(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13cdUpperBound(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Fig13cd(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14aKNNError(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig14a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14bEdgesAccessed(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig14b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14cdRegressionError(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Fig14cd(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.RunHeadline(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the per-query costs behind Fig. 11d ---

type benchEngines struct {
	unsampled *query.Engine
	sampled   *query.Engine
	rects     []geom.Rect
	horizon   float64
}

var (
	benchQOnce sync.Once
	benchQ     *benchEngines
	benchQErr  error
)

func getQueryBench(b *testing.B) *benchEngines {
	b.Helper()
	env := getBenchEnv(b)
	benchQOnce.Do(func() {
		rng := rand.New(rand.NewSource(99))
		cands := sampling.CandidatesFromDual(env.W.Dual.InteriorNodes(), env.W.Dual.G.Point)
		sel, err := (sampling.QuadTreeSampler{Randomized: true}).Sample(cands, env.SensorBudget(12.8), rng)
		if err != nil {
			benchQErr = err
			return
		}
		sg, err := sampled.Build(env.W, sel, sampled.Options{Connect: sampled.Triangulation})
		if err != nil {
			benchQErr = err
			return
		}
		be := &benchEngines{
			unsampled: query.NewEngine(env.W, env.Store),
			sampled:   query.NewSampledEngine(sg, env.Store),
			horizon:   env.WL.Horizon,
		}
		for i := 0; i < 64; i++ {
			rect, _, _ := env.RandomQuery(4.32, rng)
			be.rects = append(be.rects, rect)
		}
		benchQ = be
	})
	if benchQErr != nil {
		b.Fatal(benchQErr)
	}
	return benchQ
}

func benchQueries(b *testing.B, eng *query.Engine, kind query.Kind, qb *benchEngines) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rect := qb.rects[i%len(qb.rects)]
		_, err := eng.Query(query.Request{
			Rect: rect, T1: qb.horizon * 0.3, T2: qb.horizon * 0.7,
			Kind: kind, Bound: sampled.Lower,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryExecutionUnsampledSnapshot(b *testing.B) {
	qb := getQueryBench(b)
	benchQueries(b, qb.unsampled, query.Snapshot, qb)
}

func BenchmarkQueryExecutionUnsampledStatic(b *testing.B) {
	qb := getQueryBench(b)
	benchQueries(b, qb.unsampled, query.Static, qb)
}

func BenchmarkQueryExecutionUnsampledTransient(b *testing.B) {
	qb := getQueryBench(b)
	benchQueries(b, qb.unsampled, query.Transient, qb)
}

func BenchmarkQueryExecutionSampledSnapshot(b *testing.B) {
	qb := getQueryBench(b)
	benchQueries(b, qb.sampled, query.Snapshot, qb)
}

func BenchmarkQueryExecutionSampledTransient(b *testing.B) {
	qb := getQueryBench(b)
	benchQueries(b, qb.sampled, query.Transient, qb)
}

// BenchmarkLearnedSnapshotCount is Fig. 11d's learned-model inference:
// the snapshot theorem over a learned.Store, below the engine as the
// figures run it, on the exact regions of the same 64 rects.
func BenchmarkLearnedSnapshotCount(b *testing.B) {
	qb := getQueryBench(b)
	env := getBenchEnv(b)
	ls := learned.FromExact(env.Store, learned.PiecewiseTrainer{Segments: 8})
	var regions []*core.Region
	for _, rect := range qb.rects {
		r, err := core.NewRegion(env.W, env.W.JunctionsIn(rect))
		if err != nil {
			b.Fatal(err)
		}
		if !r.Empty() {
			regions = append(regions, r)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SnapshotCount(ls, regions[i%len(regions)], qb.horizon*0.3)
	}
}

func BenchmarkIngestEvents(b *testing.B) {
	env := getBenchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := core.NewStore(env.W)
		if err := env.WL.Feed(st); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(env.WL.Events)))
}

func BenchmarkSampledGraphBuild(b *testing.B) {
	env := getBenchEnv(b)
	rng := rand.New(rand.NewSource(3))
	cands := sampling.CandidatesFromDual(env.W.Dual.InteriorNodes(), env.W.Dual.G.Point)
	sel, err := (sampling.QuadTreeSampler{Randomized: true}).Sample(cands, env.SensorBudget(12.8), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampled.Build(env.W, sel, sampled.Options{Connect: sampled.Triangulation}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLearnedTraining(b *testing.B) {
	env := getBenchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learned.FromExact(env.Store, learned.PiecewiseTrainer{Segments: 8})
	}
}
