package mobility

import (
	"sort"

	"repro/internal/planar"
)

// Outside is the oracle's junction value for an object that is not in the
// world (before entry / after exit).
const Outside planar.NodeID = -1

// Oracle answers exact occupancy questions from a workload's full event
// history (including object identifiers). It exists only for testing and
// for measuring the accuracy of the identifier-free framework; nothing in
// the query path depends on it.
type Oracle struct {
	// timelines[obj] is the position history of one object: entries
	// sorted by time, each giving the junction occupied from T onward.
	timelines [][]posAt
}

type posAt struct {
	t  float64
	at planar.NodeID
}

// NewOracle indexes the workload for occupancy queries.
func NewOracle(wl *Workload) *Oracle {
	o := &Oracle{timelines: make([][]posAt, wl.Objects)}
	for _, ev := range wl.Events {
		at := ev.At
		if ev.Kind == Leave {
			at = Outside
		}
		o.timelines[ev.Obj] = append(o.timelines[ev.Obj], posAt{t: ev.T, at: at})
	}
	return o
}

// PositionAt returns the junction occupied by obj at time t, or Outside.
func (o *Oracle) PositionAt(obj int, t float64) planar.NodeID {
	tl := o.timelines[obj]
	// Last entry with entry.t <= t.
	i := sort.Search(len(tl), func(i int) bool { return tl[i].t > t })
	if i == 0 {
		return Outside
	}
	return tl[i-1].at
}

// InsideAt returns the exact number of objects whose position at time t
// lies in the junction set.
func (o *Oracle) InsideAt(contains func(planar.NodeID) bool, t float64) int {
	count := 0
	for obj := range o.timelines {
		if at := o.PositionAt(obj, t); at != Outside && contains(at) {
			count++
		}
	}
	return count
}

// StaticCount returns the exact number of objects inside the junction set
// for the entire interval [t1, t2] — the paper's static object count
// query semantics (enter before t1, leave after t2, never temporarily
// out).
func (o *Oracle) StaticCount(contains func(planar.NodeID) bool, t1, t2 float64) int {
	count := 0
	for obj := range o.timelines {
		if o.alwaysInside(obj, contains, t1, t2) {
			count++
		}
	}
	return count
}

func (o *Oracle) alwaysInside(obj int, contains func(planar.NodeID) bool, t1, t2 float64) bool {
	tl := o.timelines[obj]
	// Position at t1 must already be inside.
	i := sort.Search(len(tl), func(i int) bool { return tl[i].t > t1 })
	if i == 0 {
		return false
	}
	if at := tl[i-1].at; at == Outside || !contains(at) {
		return false
	}
	// Every later position change up to t2 must stay inside.
	for ; i < len(tl) && tl[i].t <= t2; i++ {
		if at := tl[i].at; at == Outside || !contains(at) {
			return false
		}
	}
	return true
}

// TransientCount returns the paper's transient count ground truth: the
// net change of occupancy over (t1, t2].
func (o *Oracle) TransientCount(contains func(planar.NodeID) bool, t1, t2 float64) int {
	return o.InsideAt(contains, t2) - o.InsideAt(contains, t1)
}
