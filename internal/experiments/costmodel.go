package experiments

import (
	"math/rand"

	"repro/internal/planar"
	"repro/internal/sampled"
	"repro/internal/sampling"
)

// CostModelReport validates the paper's theoretical query-cost model
// (§4.9): the number of sampled-graph nodes involved in a query is
// predicted as
//
//	|Ñ_P| ≈ (A(Q_R)/A(T_R)) · m · k · ℓ_G
//
// with m sampled sensors, k neighbours per sensor (k-NN wiring), and ℓ_G
// the average shortest-path length of the sensing graph (expected to be
// sub-linear — the small-world factor).
type CostModelReport struct {
	// EllG is the measured average shortest-path hop length of G.
	EllG float64
	// LogN is log₂ of the sensing-graph node count, for the small-world
	// comparison ℓ_G = O(log N).
	LogN float64
	// Rows holds one measurement per (m, k, query-area) cell.
	Rows []CostModelRow
}

// CostModelRow is one validated cell of the cost model.
type CostModelRow struct {
	M         int
	K         int
	AreaPct   float64
	Predicted float64
	// MeasuredNodes is the mean number of G̃ nodes (sensors + relays) on
	// query perimeters.
	MeasuredNodes float64
	// Ratio is Measured/Predicted; the model is validated when the ratio
	// is O(1) and stable across the sweep.
	Ratio float64
}

// RunCostModel measures the §4.9 prediction on k-NN sampled graphs.
func (e *Env) RunCostModel() (*CostModelReport, error) {
	rep := &CostModelReport{
		EllG: planar.AvgShortestPathLength(e.W.Dual.G, 32),
		LogN: log2(float64(e.W.Dual.G.NumNodes())),
	}
	rng := e.repRNG(4909)
	for _, pct := range []float64{6.4, 12.8, 25.6} {
		m := e.SensorBudget(pct)
		for _, k := range []int{2, 3, 5} {
			sel, err := (sampling.QuadTreeSampler{Randomized: true}).Sample(e.Candidates, m, rng)
			if err != nil {
				return nil, err
			}
			sg, err := sampled.Build(e.W, sel, sampled.Options{Connect: sampled.KNN, K: k})
			if err != nil {
				return nil, err
			}
			for _, areaPct := range []float64{4.32, 17.28} {
				measured, n := e.measureNodesInRegion(sg, areaPct, rng)
				if n == 0 {
					continue
				}
				pred := areaPct / 100 * float64(m) * float64(k) * rep.EllG
				row := CostModelRow{
					M: m, K: k, AreaPct: areaPct,
					Predicted:     pred,
					MeasuredNodes: measured,
				}
				if pred > 0 {
					row.Ratio = measured / pred
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep, nil
}

// measureNodesInRegion returns the mean number of G̃ nodes (selected
// sensors plus path relays) whose location falls inside random query
// rectangles — the |Ñ_P| quantity of §4.9's prediction.
func (e *Env) measureNodesInRegion(sg *sampled.Graph, areaPct float64, rng *rand.Rand) (float64, int) {
	var sum float64
	n := 0
	for q := 0; q < e.Cfg.Reps*e.Cfg.QueriesPerRep; q++ {
		rect, _, _ := e.RandomQuery(areaPct, rng)
		inside := 0
		for node := range sg.DualNodes {
			if rect.Contains(sg.W.Dual.G.Point(node)) {
				inside++
			}
		}
		sum += float64(inside)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func log2(x float64) float64 {
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}
