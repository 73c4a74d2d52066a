package learned

import (
	"sort"

	"repro/internal/core"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Store is a learned tracking-form store: every edge direction holds a
// trained Model instead of the raw timestamp sequence. It implements
// core.Counter, so the framework's counting theorems run unchanged on
// model inference; having discarded the sequence, it is no
// core.StepLister.
type Store struct {
	w        *roadnet.World
	roadFwd  []Model
	roadRev  []Model
	worldIn  map[planar.NodeID]Model
	worldOut map[planar.NodeID]Model
	worldJs  []planar.NodeID
	trainer  Trainer
}

// FromExact trains a learned store from the exact store's tracking forms
// using the given regressor family. Roads without events get no model
// (zero count, zero storage).
func FromExact(st *core.Store, tr Trainer) *Store {
	w := st.World()
	ls := &Store{
		w:        w,
		roadFwd:  make([]Model, w.Star.NumEdges()),
		roadRev:  make([]Model, w.Star.NumEdges()),
		worldIn:  make(map[planar.NodeID]Model),
		worldOut: make(map[planar.NodeID]Model),
		trainer:  tr,
	}
	for e := 0; e < w.Star.NumEdges(); e++ {
		trk := st.RoadTracker(planar.EdgeID(e))
		if ts := trk.Events(true); len(ts) > 0 {
			ls.roadFwd[e] = tr.Train(ts)
		}
		if ts := trk.Events(false); len(ts) > 0 {
			ls.roadRev[e] = tr.Train(ts)
		}
	}
	for _, g := range st.WorldJunctions() {
		in, out := st.WorldEvents(g)
		if len(in) > 0 {
			ls.worldIn[g] = tr.Train(in)
		}
		if len(out) > 0 {
			ls.worldOut[g] = tr.Train(out)
		}
		ls.worldJs = append(ls.worldJs, g)
	}
	sort.Slice(ls.worldJs, func(i, j int) bool { return ls.worldJs[i] < ls.worldJs[j] })
	return ls
}

// TrainerName returns the regressor family used by the store.
func (ls *Store) TrainerName() string { return ls.trainer.Name() }

// RoadCrossings implements core.Counter by model inference.
func (ls *Store) RoadCrossings(road planar.EdgeID, toward planar.NodeID, t float64) float64 {
	e := ls.w.Star.Edge(road)
	var m Model
	if toward == e.V {
		m = ls.roadFwd[road]
	} else {
		m = ls.roadRev[road]
	}
	if m == nil {
		return 0
	}
	return m.CountAt(t)
}

// WorldCrossings implements core.Counter.
func (ls *Store) WorldCrossings(g planar.NodeID, entering bool, t float64) float64 {
	var m Model
	if entering {
		m = ls.worldIn[g]
	} else {
		m = ls.worldOut[g]
	}
	if m == nil {
		return 0
	}
	return m.CountAt(t)
}

// WorldJunctions implements core.Counter.
func (ls *Store) WorldJunctions() []planar.NodeID { return ls.worldJs }

// Storage reports the model storage footprint over the given roads (nil
// means all roads). World-edge models are excluded, mirroring
// core.Store.Storage.
func (ls *Store) Storage(roads []planar.EdgeID) int {
	total := 0
	add := func(e planar.EdgeID) {
		if m := ls.roadFwd[e]; m != nil {
			total += m.SizeBytes()
		}
		if m := ls.roadRev[e]; m != nil {
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
		if m := ls.roadFwd[e]; m != nil {
			out[e] += m.SizeBytes()
		}
		if m := ls.roadRev[e]; m != nil {
			out[e] += m.SizeBytes()
		}
	}
	return out
}
