package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/euler"
	"repro/internal/learned"
	"repro/internal/query"
	"repro/internal/sampled"
	"repro/internal/sampling"
)

// countOn evaluates the requested count kind over a region with the exact
// store.
func (e *Env) countOn(r *core.Region, kind query.Kind, t1, t2 float64) float64 {
	switch kind {
	case query.Snapshot:
		return core.SnapshotCount(e.Store, r, t1)
	case query.Static:
		return core.StaticCount(e.Store, r, t1, t2)
	default:
		return core.TransientCount(e.Store, r, t1, t2)
	}
}

// repRNG derives a deterministic RNG for one (x, method, rep) cell.
func (e *Env) repRNG(salt ...int64) *rand.Rand {
	h := e.Cfg.Seed
	for _, s := range salt {
		h = h*1000003 + s + 12289
	}
	return rand.New(rand.NewSource(h))
}

// sweepCell measures one sampled graph against QueriesPerRep random
// queries: mean relative error (misses count as error 1), miss rate, and
// mean upper-bound ratio.
type cellResult struct {
	err, missRate, upperRatio float64
}

func (e *Env) sweepCell(sg *sampled.Graph, kind query.Kind, pool *QueryPool, rng *rand.Rand) cellResult {
	var errSum, upSum float64
	misses := 0
	n := e.Cfg.QueriesPerRep
	for q := 0; q < n; q++ {
		rect, t1, t2 := e.Draw(pool, rng)
		exact, err := e.RegionOf(rect)
		if err != nil || exact.Empty() {
			upSum++
			continue
		}
		truth := e.countOn(exact, kind, t1, t2)
		lower, _, miss, _ := sg.ApproximateRect(rect, sampled.Lower)
		if miss {
			misses++
			errSum += 1
		} else {
			errSum += RelativeError(truth, e.countOn(lower, kind, t1, t2))
		}
		upper, _, _, _ := sg.ApproximateRect(rect, sampled.Upper)
		upApprox := e.countOn(upper, kind, t1, t2)
		den := truth
		if den < 1 {
			den = 1
		}
		ratio := upApprox / den
		if ratio < 1 {
			ratio = 1 // clamp noise on tiny counts
		}
		upSum += ratio
	}
	return cellResult{
		err:        errSum / float64(n),
		missRate:   float64(misses) / float64(n),
		upperRatio: upSum / float64(n),
	}
}

// baselineCell evaluates the Euler baseline at a face-sampling budget.
func (e *Env) baselineCell(m int, scaled bool, kind query.Kind, pool *QueryPool, rng *rand.Rand) cellResult {
	bl, err := euler.NewBaseline(e.Hist, m, scaled, rng)
	if err != nil {
		return cellResult{err: 1, missRate: 1, upperRatio: 1}
	}
	var errSum float64
	misses := 0
	n := e.Cfg.QueriesPerRep
	for q := 0; q < n; q++ {
		rect, t1, t2 := e.Draw(pool, rng)
		exact, rerr := e.RegionOf(rect)
		if rerr != nil || exact.Empty() {
			continue
		}
		truth := e.countOn(exact, kind, t1, t2)
		var est float64
		var miss bool
		js := junctionSetOf(exact)
		switch kind {
		case query.Snapshot:
			est, miss = bl.SnapshotCount(js, t1)
		case query.Static:
			est, miss = bl.StaticCount(js, t1, t2)
		default:
			est, miss = bl.TransientCount(js, t1, t2)
		}
		if miss {
			misses++
			errSum += 1
			continue
		}
		errSum += RelativeError(truth, est)
	}
	return cellResult{err: errSum / float64(n), missRate: float64(misses) / float64(n)}
}

// sweepWorkers bounds the sweep's concurrency.
func sweepWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}

// sweepOutcome bundles the three figures a sweep produces.
type sweepOutcome struct {
	Err, Miss, Upper Figure
}

// sweepGraphSize runs every method across GraphSizes at the fixed query
// area.
func (e *Env) sweepGraphSize(kind query.Kind) (sweepOutcome, error) {
	return e.sweep(GraphSizes, true, kind, FixedQueryPct)
}

// sweepQuerySize runs every method across QuerySizes at the fixed graph
// size.
func (e *Env) sweepQuerySize(kind query.Kind) (sweepOutcome, error) {
	return e.sweep(QuerySizes, false, kind, FixedGraphPct)
}

func (e *Env) sweep(xs []float64, xIsGraph bool, kind query.Kind, fixed float64) (sweepOutcome, error) {
	methods := Methods()
	out := sweepOutcome{}
	errSeries := make([]Series, len(methods)+1)
	missSeries := make([]Series, len(methods)+1)
	upSeries := make([]Series, len(methods))
	// Cells are independent: the environment is read-only during sweeps
	// (Store takes read locks) and every cell derives its own RNG, so
	// they run on a bounded worker pool.
	type cellKey struct{ mi, xi, rep int }
	results := make(map[cellKey]cellResult, len(methods)*len(xs)*e.Cfg.Reps)
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, sweepWorkers())
	for mi := range methods {
		for xi, x := range xs {
			graphPct, areaPct := fixed, x
			if xIsGraph {
				graphPct, areaPct = x, fixed
			}
			budget := e.SensorBudget(graphPct)
			for rep := 0; rep < e.Cfg.Reps; rep++ {
				wg.Add(1)
				sem <- struct{}{}
				go func(mi, xi, rep int, areaPct float64, budget int) {
					defer func() { <-sem; wg.Done() }()
					rng := e.repRNG(int64(kind), int64(mi), int64(xi), int64(rep))
					// The pool depends only on (x, rep), not the method,
					// so every method faces the same query workload.
					pool := e.NewQueryPool(e.Cfg.HistoricalQueries, areaPct,
						e.repRNG(8191, int64(kind), int64(xi), int64(rep)))
					cell := cellResult{err: 1, missRate: 1, upperRatio: 1}
					if sg, err := methods[mi].Build(e, budget, pool, rng); err == nil {
						cell = e.sweepCell(sg, kind, pool, rng)
					}
					// A Build error means the budget is too small for the
					// method (e.g. the submodular minimum): total miss.
					mu.Lock()
					results[cellKey{mi, xi, rep}] = cell
					mu.Unlock()
				}(mi, xi, rep, areaPct, budget)
			}
		}
	}
	wg.Wait()
	for mi, meth := range methods {
		errSeries[mi].Name = meth.Name
		missSeries[mi].Name = meth.Name
		upSeries[mi].Name = meth.Name
		for xi, x := range xs {
			var errs, missRates, ups []float64
			for rep := 0; rep < e.Cfg.Reps; rep++ {
				cell := results[cellKey{mi, xi, rep}]
				errs = append(errs, cell.err)
				missRates = append(missRates, cell.missRate)
				ups = append(ups, cell.upperRatio)
			}
			errSeries[mi].Points = append(errSeries[mi].Points, Point{X: x, Stat: NewStat(errs)})
			missSeries[mi].Points = append(missSeries[mi].Points, Point{X: x, Stat: NewStat(missRates)})
			upSeries[mi].Points = append(upSeries[mi].Points, Point{X: x, Stat: NewStat(ups)})
		}
	}
	// Euler baseline.
	bi := len(methods)
	errSeries[bi].Name = "euler-baseline"
	missSeries[bi].Name = "euler-baseline"
	for xi, x := range xs {
		graphPct, areaPct := fixed, x
		if xIsGraph {
			graphPct, areaPct = x, fixed
		}
		faces := int(float64(e.W.Star.NumNodes()) * graphPct / 100)
		if faces < 1 {
			faces = 1
		}
		var errs, missRates []float64
		for rep := 0; rep < e.Cfg.Reps; rep++ {
			rng := e.repRNG(int64(kind), int64(bi), int64(xi), int64(rep))
			pool := e.NewQueryPool(e.Cfg.HistoricalQueries, areaPct,
				e.repRNG(8191, int64(kind), int64(xi), int64(rep)))
			// The paper's baseline sums the sampled faces directly
			// (a lower bound); the Horvitz–Thompson scaled variant is
			// kept as an ablation (AblationBaselineScaling).
			cell := e.baselineCell(faces, false, kind, pool, rng)
			errs = append(errs, cell.err)
			missRates = append(missRates, cell.missRate)
		}
		errSeries[bi].Points = append(errSeries[bi].Points, Point{X: x, Stat: NewStat(errs)})
		missSeries[bi].Points = append(missSeries[bi].Points, Point{X: x, Stat: NewStat(missRates)})
	}
	xlabel := "query area (% of domain)"
	if xIsGraph {
		xlabel = "sampled graph size (% of |V(G)|)"
	}
	out.Err = Figure{XLabel: xlabel, YLabel: "relative error (lower bound)", Series: errSeries}
	out.Miss = Figure{XLabel: xlabel, YLabel: "query miss rate", Series: missSeries}
	out.Upper = Figure{XLabel: xlabel, YLabel: "upper-bound ratio (≥1)", Series: upSeries}
	return out, nil
}

// Fig11a reproduces Fig. 11a: transient lower-bound relative error vs
// sampled graph size.
func (e *Env) Fig11a() (Figure, error) {
	o, err := e.sweepGraphSize(query.Transient)
	if err != nil {
		return Figure{}, err
	}
	f := o.Err
	f.ID, f.Title = "fig11a", "Transient rel. error vs graph size"
	return f, nil
}

// Fig11b reproduces Fig. 11b: transient relative error vs query size.
func (e *Env) Fig11b() (Figure, error) {
	o, err := e.sweepQuerySize(query.Transient)
	if err != nil {
		return Figure{}, err
	}
	f := o.Err
	f.ID, f.Title = "fig11b", "Transient rel. error vs query size"
	return f, nil
}

// Fig12a reproduces Fig. 12a: static lower-bound relative error vs graph
// size.
func (e *Env) Fig12a() (Figure, error) {
	o, err := e.sweepGraphSize(query.Static)
	if err != nil {
		return Figure{}, err
	}
	f := o.Err
	f.ID, f.Title = "fig12a", "Static rel. error vs graph size"
	return f, nil
}

// Fig12b reproduces Fig. 12b: static relative error vs query size.
func (e *Env) Fig12b() (Figure, error) {
	o, err := e.sweepQuerySize(query.Static)
	if err != nil {
		return Figure{}, err
	}
	f := o.Err
	f.ID, f.Title = "fig12b", "Static rel. error vs query size"
	return f, nil
}

// Fig13ab reproduces Fig. 13a/b: query miss rate vs graph size and vs
// query size.
func (e *Env) Fig13ab() (Figure, Figure, error) {
	a, err := e.sweepGraphSize(query.Static)
	if err != nil {
		return Figure{}, Figure{}, err
	}
	b, err := e.sweepQuerySize(query.Static)
	if err != nil {
		return Figure{}, Figure{}, err
	}
	fa, fb := a.Miss, b.Miss
	fa.ID, fa.Title = "fig13a", "Query misses vs graph size"
	fb.ID, fb.Title = "fig13b", "Query misses vs query size"
	return fa, fb, nil
}

// Fig13cd reproduces Fig. 13c/d: upper-bound count ratio vs graph size
// and vs query size.
func (e *Env) Fig13cd() (Figure, Figure, error) {
	a, err := e.sweepGraphSize(query.Static)
	if err != nil {
		return Figure{}, Figure{}, err
	}
	b, err := e.sweepQuerySize(query.Static)
	if err != nil {
		return Figure{}, Figure{}, err
	}
	fa, fb := a.Upper, b.Upper
	fa.ID, fa.Title = "fig13c", "Upper-bound ratio vs graph size"
	fb.ID, fb.Title = "fig13d", "Upper-bound ratio vs query size"
	return fa, fb, nil
}

// Fig11c reproduces Fig. 11c: sensors accessed vs query size, for a 6.4%
// and a 51.2% sampled graph against the unsampled graph and the baseline.
func (e *Env) Fig11c() (Figure, error) {
	type variant struct {
		name string
		pct  float64 // sampled graph size; 0 = unsampled, −1 = baseline
	}
	variants := []variant{
		{"sampled-6.4%", 6.4},
		{"sampled-51.2%", 51.2},
		{"unsampled", 0},
		{"euler-baseline", -1},
	}
	fig := Figure{
		ID: "fig11c", Title: "Nodes accessed vs query size",
		XLabel: "query area (% of domain)", YLabel: "sensors accessed",
	}
	for vi, v := range variants {
		s := Series{Name: v.name}
		for xi, areaPct := range QuerySizes {
			var vals []float64
			for rep := 0; rep < e.Cfg.Reps; rep++ {
				rng := e.repRNG(311, int64(vi), int64(xi), int64(rep))
				eng, bl, err := e.accessEngine(v.pct, rng)
				if err != nil {
					continue
				}
				for q := 0; q < e.Cfg.QueriesPerRep; q++ {
					rect, t1, _ := e.RandomQuery(areaPct, rng)
					if bl != nil {
						// Baseline accesses its sampled faces inside Q_R.
						r, err := e.RegionOf(rect)
						if err != nil {
							continue
						}
						n := 0
						for _, j := range r.Junctions() {
							for _, sj := range bl.Sampled {
								if sj == j {
									n++
									break
								}
							}
						}
						vals = append(vals, float64(n))
						continue
					}
					resp, err := eng.Query(query.Request{Rect: rect, T1: t1, Kind: query.Snapshot, Bound: sampled.Lower})
					if err != nil || resp.Missed {
						continue
					}
					vals = append(vals, float64(resp.Net.NodesAccessed))
				}
			}
			if len(vals) == 0 {
				vals = []float64{0}
			}
			s.Points = append(s.Points, Point{X: areaPct, Stat: NewStat(vals)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// accessEngine builds the engine (and optional baseline) for one Fig-11c
// variant.
func (e *Env) accessEngine(pct float64, rng *rand.Rand) (*query.Engine, *euler.Baseline, error) {
	switch {
	case pct == 0:
		return query.NewEngine(e.W, e.Store), nil, nil
	case pct < 0:
		faces := int(float64(e.W.Star.NumNodes()) * FixedGraphPct / 100)
		bl, err := euler.NewBaseline(e.Hist, faces, true, rng)
		return nil, bl, err
	default:
		sel, err := (sampling.QuadTreeSampler{Randomized: true}).Sample(e.Candidates, e.SensorBudget(pct), rng)
		if err != nil {
			return nil, nil, err
		}
		sg, err := sampled.Build(e.W, sel, sampled.Options{Connect: sampled.Triangulation})
		if err != nil {
			return nil, nil, err
		}
		return query.NewSampledEngine(sg, e.Store), nil, nil
	}
}

// Fig11d reproduces Fig. 11d: query execution time vs query size,
// sampled (6.4%) vs unsampled.
func (e *Env) Fig11d() (Figure, error) {
	fig := Figure{
		ID: "fig11d", Title: "Query execution time vs query size",
		XLabel: "query area (% of domain)", YLabel: "time per query (µs)",
	}
	rng := e.repRNG(411)
	sel, err := (sampling.QuadTreeSampler{Randomized: true}).Sample(e.Candidates, e.SensorBudget(FixedGraphPct), rng)
	if err != nil {
		return fig, err
	}
	sg, err := sampled.Build(e.W, sel, sampled.Options{Connect: sampled.Triangulation})
	if err != nil {
		return fig, err
	}
	engines := []struct {
		name string
		eng  *query.Engine
	}{
		{"sampled-6.4%", query.NewSampledEngine(sg, e.Store)},
		{"unsampled", query.NewEngine(e.W, e.Store)},
	}
	for _, en := range engines {
		s := Series{Name: en.name}
		for xi, areaPct := range QuerySizes {
			var times []float64
			for rep := 0; rep < e.Cfg.Reps; rep++ {
				r := e.repRNG(412, int64(xi), int64(rep))
				for q := 0; q < e.Cfg.QueriesPerRep; q++ {
					rect, t1, t2 := e.RandomQuery(areaPct, r)
					start := time.Now()
					_, err := en.eng.Query(query.Request{
						Rect: rect, T1: t1, T2: t2, Kind: query.Transient, Bound: sampled.Lower})
					el := time.Since(start)
					if err == nil {
						times = append(times, float64(el.Microseconds()))
					}
				}
			}
			s.Points = append(s.Points, Point{X: areaPct, Stat: NewStat(times)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig11e reproduces Fig. 11e: the CDF of per-edge storage for explicit
// timestamps vs the constant-size regression models.
func (e *Env) Fig11e() (Figure, error) {
	fig := Figure{
		ID: "fig11e", Title: "Per-edge storage CDF",
		XLabel: "bytes per edge", YLabel: "CDF over active edges",
	}
	exact := e.Store.Storage()
	var sizes []float64
	for _, n := range exact.TimestampsPerRoad {
		if n > 0 {
			sizes = append(sizes, float64(n*8))
		}
	}
	sort.Float64s(sizes)
	exactSeries := Series{Name: "exact"}
	for i := 0; i < len(sizes); i += maxInt(1, len(sizes)/24) {
		exactSeries.Points = append(exactSeries.Points, Point{
			X:    sizes[i],
			Stat: Stat{Median: float64(i+1) / float64(len(sizes)), N: len(sizes)},
		})
	}
	exactSeries.Points = append(exactSeries.Points, Point{
		X: sizes[len(sizes)-1], Stat: Stat{Median: 1, N: len(sizes)}})
	fig.Series = append(fig.Series, exactSeries)
	for _, tr := range learned.Registry() {
		if tr.Name() == "exact" {
			continue
		}
		ls := learned.FromExact(e.Store, tr)
		var msizes []float64
		for _, s := range ls.PerEdgeSizes() {
			if s > 0 {
				msizes = append(msizes, float64(s))
			}
		}
		sort.Float64s(msizes)
		s := Series{Name: tr.Name()}
		// Constant models: CDF is a step; two points suffice.
		s.Points = append(s.Points,
			Point{X: msizes[0], Stat: Stat{Median: 0, N: len(msizes)}},
			Point{X: msizes[len(msizes)-1], Stat: Stat{Median: 1, N: len(msizes)}})
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Fig14a reproduces Fig. 14a: lower-bound relative error of k-NN
// connectivity vs triangulation over query sizes.
func (e *Env) Fig14a() (Figure, error) {
	fig := Figure{
		ID: "fig14a", Title: "k-NN connectivity rel. error vs query size",
		XLabel: "query area (% of domain)", YLabel: "relative error (lower bound)",
	}
	f14a, _, err := e.knnSweep()
	if err != nil {
		return fig, err
	}
	fig.Series = f14a
	return fig, nil
}

// Fig14b reproduces Fig. 14b: sensing edges accessed per query for the
// same connectivity variants.
func (e *Env) Fig14b() (Figure, error) {
	fig := Figure{
		ID: "fig14b", Title: "Edges accessed vs query size",
		XLabel: "query area (% of domain)", YLabel: "perimeter edges accessed",
	}
	_, f14b, err := e.knnSweep()
	if err != nil {
		return fig, err
	}
	fig.Series = f14b
	return fig, nil
}

func (e *Env) knnSweep() (errSeries, edgeSeries []Series, err error) {
	variants := []struct {
		name string
		opt  sampled.Options
	}{
		{"knn-k2", sampled.Options{Connect: sampled.KNN, K: 2}},
		{"knn-k3", sampled.Options{Connect: sampled.KNN, K: 3}},
		{"knn-k5", sampled.Options{Connect: sampled.KNN, K: 5}},
		{"knn-k8", sampled.Options{Connect: sampled.KNN, K: 8}},
		{"triangulation", sampled.Options{Connect: sampled.Triangulation}},
	}
	budget := e.SensorBudget(FixedGraphPct)
	for vi, v := range variants {
		es := Series{Name: v.name}
		gs := Series{Name: v.name}
		for xi, areaPct := range QuerySizes {
			var errs, edges []float64
			for rep := 0; rep < e.Cfg.Reps; rep++ {
				rng := e.repRNG(514, int64(vi), int64(xi), int64(rep))
				sel, serr := (sampling.QuadTreeSampler{Randomized: true}).Sample(e.Candidates, budget, rng)
				if serr != nil {
					return nil, nil, serr
				}
				sg, berr := sampled.Build(e.W, sel, v.opt)
				if berr != nil {
					return nil, nil, berr
				}
				var errSum, edgeSum float64
				n := 0
				for q := 0; q < e.Cfg.QueriesPerRep; q++ {
					rect, t1, t2 := e.RandomQuery(areaPct, rng)
					exact, rerr := e.RegionOf(rect)
					if rerr != nil || exact.Empty() {
						continue
					}
					truth := e.countOn(exact, query.Transient, t1, t2)
					lower, _, miss, _ := sg.ApproximateRect(rect, sampled.Lower)
					n++
					if miss {
						errSum += 1
						continue
					}
					errSum += RelativeError(truth, e.countOn(lower, query.Transient, t1, t2))
					edgeSum += float64(len(lower.CutRoads()))
				}
				if n > 0 {
					errs = append(errs, errSum/float64(n))
					edges = append(edges, edgeSum/float64(n))
				}
			}
			es.Points = append(es.Points, Point{X: areaPct, Stat: NewStat(errs)})
			gs.Points = append(gs.Points, Point{X: areaPct, Stat: NewStat(edges)})
		}
		errSeries = append(errSeries, es)
		edgeSeries = append(edgeSeries, gs)
	}
	return errSeries, edgeSeries, nil
}

// Fig14cd reproduces Fig. 14c/d: the extra error introduced by replacing
// exact tracking forms with regression models, measured against the
// counts of the exact store on the same sampled regions — static (c) and
// transient (d).
func (e *Env) Fig14cd() (Figure, Figure, error) {
	figC := Figure{
		ID: "fig14c", Title: "Regression model added error (static)",
		XLabel: "query area (% of domain)", YLabel: "relative error vs exact forms",
	}
	figD := Figure{
		ID: "fig14d", Title: "Regression model added error (transient)",
		XLabel: "query area (% of domain)", YLabel: "relative error vs exact forms",
	}
	rng := e.repRNG(614)
	sel, err := (sampling.QuadTreeSampler{Randomized: true}).Sample(e.Candidates, e.SensorBudget(FixedGraphPct), rng)
	if err != nil {
		return figC, figD, err
	}
	sg, err := sampled.Build(e.W, sel, sampled.Options{Connect: sampled.Triangulation})
	if err != nil {
		return figC, figD, err
	}
	for _, tr := range learned.Registry() {
		if tr.Name() == "exact" {
			continue
		}
		ls := learned.FromExact(e.Store, tr)
		sc := Series{Name: tr.Name()}
		sd := Series{Name: tr.Name()}
		for xi, areaPct := range QuerySizes {
			var errsC, errsD []float64
			for rep := 0; rep < e.Cfg.Reps; rep++ {
				r := e.repRNG(615, int64(xi), int64(rep))
				var cSum, dSum float64
				n := 0
				for q := 0; q < e.Cfg.QueriesPerRep; q++ {
					rect, t1, t2 := e.RandomQuery(areaPct, r)
					lower, _, miss, _ := sg.ApproximateRect(rect, sampled.Lower)
					if miss { // an empty rect misses too
						continue
					}
					n++
					exC := core.StaticCount(e.Store, lower, t1, t2)
					apC := core.StaticCountSampled(ls, lower, t1, t2, 16)
					cSum += RelativeError(exC, apC)
					exD := core.TransientCount(e.Store, lower, t1, t2)
					apD := core.TransientCount(ls, lower, t1, t2)
					dSum += RelativeError(exD, apD)
				}
				if n > 0 {
					errsC = append(errsC, cSum/float64(n))
					errsD = append(errsD, dSum/float64(n))
				}
			}
			sc.Points = append(sc.Points, Point{X: areaPct, Stat: NewStat(errsC)})
			sd.Points = append(sd.Points, Point{X: areaPct, Stat: NewStat(errsD)})
		}
		figC.Series = append(figC.Series, sc)
		figD.Series = append(figD.Series, sd)
	}
	return figC, figD, nil
}

// Headline reproduces the abstract's summary numbers.
type Headline struct {
	// SensorFraction is the sampled-graph size used (25.6%).
	SensorFraction float64
	// RelError is the median transient lower-bound relative error over
	// the full query-size mix.
	RelError float64
	// RelErrorLarge is the median error restricted to the largest query
	// size of the sweep — the regime the paper's "at most 13.8%" number
	// describes (large queries over a fine sensing graph).
	RelErrorLarge float64
	// Speedup is unsampled time / sampled time per query.
	Speedup float64
	// NodeAccessReduction is 1 − sampled/unsampled nodes accessed.
	NodeAccessReduction float64
	// StorageReduction is 1 − learned-sampled bytes / exact-full bytes.
	StorageReduction float64
}

// String implements fmt.Stringer.
func (h Headline) String() string {
	return fmt.Sprintf(
		"sensors=%.1f%%  relErr(mix)=%.1f%%  relErr(largeQ)=%.1f%%  speedup=%.2fx  nodeAccess=-%.2f%%  storage=-%.2f%%",
		h.SensorFraction, h.RelError*100, h.RelErrorLarge*100, h.Speedup,
		h.NodeAccessReduction*100, h.StorageReduction*100)
}

// RunHeadline measures the abstract's headline numbers at a 25.6% sensor
// budget with the QuadTree sampler.
func (e *Env) RunHeadline() (Headline, error) {
	const pct = 25.6
	h := Headline{SensorFraction: pct}
	rng := e.repRNG(777)
	sel, err := (sampling.QuadTreeSampler{Randomized: true}).Sample(e.Candidates, e.SensorBudget(pct), rng)
	if err != nil {
		return h, err
	}
	sg, err := sampled.Build(e.W, sel, sampled.Options{Connect: sampled.Triangulation})
	if err != nil {
		return h, err
	}
	sEng := query.NewSampledEngine(sg, e.Store)
	uEng := query.NewEngine(e.W, e.Store)
	var errs, errsLarge []float64
	var sNodes, uNodes, sTime, uTime float64
	queries := e.Cfg.Reps * e.Cfg.QueriesPerRep
	largest := QuerySizes[len(QuerySizes)-1]
	for q := 0; q < queries; q++ {
		// Mix the full query-size sweep so the aggregate speedup and
		// access reduction are representative of the whole evaluation.
		size := QuerySizes[q%len(QuerySizes)]
		rect, t1, t2 := e.RandomQuery(size, rng)
		start := time.Now()
		ur, err := uEng.Query(query.Request{Rect: rect, T1: t1, T2: t2, Kind: query.Transient})
		uTime += float64(time.Since(start).Nanoseconds())
		if err != nil {
			continue
		}
		start = time.Now()
		sr, err := sEng.Query(query.Request{Rect: rect, T1: t1, T2: t2,
			Kind: query.Transient, Bound: sampled.Lower})
		sTime += float64(time.Since(start).Nanoseconds())
		if err != nil {
			continue
		}
		err2 := 1.0
		if !sr.Missed {
			err2 = RelativeError(ur.Count, sr.Count)
			sNodes += float64(sr.Net.NodesAccessed)
			uNodes += float64(ur.Net.NodesAccessed)
		}
		errs = append(errs, err2)
		if size == largest {
			errsLarge = append(errsLarge, err2)
		}
	}
	h.RelError = quantile(errs, 0.5)
	h.RelErrorLarge = quantile(errsLarge, 0.5)
	if sTime > 0 {
		h.Speedup = uTime / sTime
	}
	if uNodes > 0 {
		h.NodeAccessReduction = 1 - sNodes/uNodes
	}
	// Storage: learned models on monitored roads only vs the exact full
	// store.
	ls := learned.FromExact(e.Store, learned.LinearTrainer{})
	learnedBytes := ls.Storage(sg.MonitoredRoads)
	exactBytes := e.Store.Storage().Bytes
	if exactBytes > 0 {
		h.StorageReduction = 1 - float64(learnedBytes)/float64(exactBytes)
	}
	return h, nil
}
