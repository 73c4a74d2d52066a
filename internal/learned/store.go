package learned

import (
	"repro/internal/core"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Store is a learned tracking-form store: every direction of every
// tracked edge (roads and world edges alike) holds a trained Model
// instead of the raw timestamp sequence. It implements core.Counter, so
// the framework's counting theorems run unchanged on model inference;
// having discarded the sequence, it is no core.StepLister.
type Store struct {
	w *roadnet.World
	// fwd[e] and rev[e] are the direction models of tracked edge e; nil
	// for a direction without events (zero count, zero storage).
	fwd, rev []Model
}

// The learned half of the store contract (DESIGN.md §7.2): a Counter
// method lost to a signature slip fails the build.
var _ core.Counter = (*Store)(nil)

// FromExact trains a learned store from the exact store's tracking forms
// using the given regressor family.
func FromExact(st *core.Store, tr Trainer) *Store {
	w := st.World()
	ls := &Store{
		w:   w,
		fwd: make([]Model, w.NumTrackedEdges()),
		rev: make([]Model, w.NumTrackedEdges()),
	}
	for e := range ls.fwd {
		trk := st.RoadTracker(planar.EdgeID(e))
		if ts := trk.Events(true); len(ts) > 0 {
			ls.fwd[e] = tr.Train(ts)
		}
		if ts := trk.Events(false); len(ts) > 0 {
			ls.rev[e] = tr.Train(ts)
		}
	}
	return ls
}

// RoadCrossings implements core.Counter by model inference.
func (ls *Store) RoadCrossings(edge planar.EdgeID, toward planar.NodeID, t float64) float64 {
	in, _ := ls.models(core.CutRoad{Road: edge, Inside: toward})
	return countAt(in, t)
}

// Storage reports the model storage footprint over the given roads (nil
// means all roads). World-edge models are excluded, mirroring
// core.Store.Storage.
func (ls *Store) Storage(roads []planar.EdgeID) int {
	total := 0
	add := func(e planar.EdgeID) {
		if m := ls.fwd[e]; m != nil {
			total += m.SizeBytes()
		}
		if m := ls.rev[e]; m != nil {
			total += m.SizeBytes()
		}
	}
	if roads == nil {
		for e := 0; e < ls.w.Star.NumEdges(); e++ {
			add(planar.EdgeID(e))
		}
		return total
	}
	for _, e := range roads {
		add(e)
	}
	return total
}

// PerEdgeSizes returns the model bytes of every road (fwd + rev),
// indexed by road edge — the series behind Fig. 11e's CDF.
func (ls *Store) PerEdgeSizes() []int {
	out := make([]int, ls.w.Star.NumEdges())
	for e := range out {
		if m := ls.fwd[e]; m != nil {
			out[e] += m.SizeBytes()
		}
		if m := ls.rev[e]; m != nil {
			out[e] += m.SizeBytes()
		}
	}
	return out
}
