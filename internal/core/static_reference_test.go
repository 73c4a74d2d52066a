package core

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/planar"
)

// This file keeps the kernel StaticCount replaced — a snapshot walk at
// t1, a gather of every perimeter event of (t1, t2] into one list, a
// sort, a scan — as the reference the streaming kernel is tested and
// benchmarked against. Two things differ from what used to ship, and
// they are what pins its answer: the sort is stable, and the minimum is
// taken once per instant, after every event of that instant (the tie
// rule, DESIGN.md §6). Run against an unsealed store it touches none of
// the kernel's code: no cursor, no block walk, no merge.

// StaticCountReference exposes the reference to the external tests.
var StaticCountReference = staticCountReference

// GridSlots is the grid path's slot cap, for the external tests.
const GridSlots = gridSlots

// OnGrid reports whether StaticSteps answers the window over cuts on
// the tick grid rather than by the sort path.
func OnGrid(s *Store, cuts []CutRoad, t1, t2 float64) bool {
	sc := stepScratches.Get().(*stepScratch)
	_, _, ok := sc.gridSteps(s, cuts, t1, t2, nil)
	stepScratches.Put(sc)
	return ok
}

func staticCountReference(s *Store, r *Region, t1, t2 float64) float64 {
	inside := SnapshotCount(s, r, t1)
	var events []SignedEvent
	for _, cr := range r.Perimeter() {
		events = s.refRoadEventsIn(cr.Road, cr.Inside, t1, t2, events)
	}
	slices.SortStableFunc(events, func(a, b SignedEvent) int { return cmp.Compare(a.T, b.T) })
	minInside := inside
	for i, ev := range events {
		inside += float64(ev.Delta)
		if (i+1 == len(events) || events[i+1].T != ev.T) && inside < minInside {
			minInside = inside
		}
	}
	return minInside
}

// refRoadEventsIn appends the signed events of one cut road in (t1, t2]:
// +1 for crossings toward `toward`, −1 away; each direction's whole
// sequence read off Events.
func (s *Store) refRoadEventsIn(road planar.EdgeID, toward planar.NodeID, t1, t2 float64, dst []SignedEvent) []SignedEvent {
	tr := s.loadTracker(road)
	if tr == nil {
		return dst
	}
	in := s.forward(road, toward)
	dst = refAppendSigned(dst, tr.Events(in), +1, t1, t2)
	return refAppendSigned(dst, tr.Events(!in), -1, t1, t2)
}

// refAppendSigned appends the events of sorted ts in (t1, t2].
func refAppendSigned(dst []SignedEvent, ts []float64, delta int, t1, t2 float64) []SignedEvent {
	lo := sort.Search(len(ts), func(i int) bool { return ts[i] > t1 })
	hi := sort.Search(len(ts), func(i int) bool { return ts[i] > t2 })
	for ; lo < hi; lo++ {
		dst = append(dst, SignedEvent{T: ts[lo], Delta: delta})
	}
	return dst
}

// BlockModes reports how the store's sealed tier is encoded, for tests
// that must know they exercised every decoder: the number of
// Elias–Fano, bit-packed (width ≥ 1), varint and width-0 blocks, raw
// runs, and the largest number of seal passes that built one run.
func BlockModes(s *Store) (ef, packed, varint, width0, raw, maxSeals int) {
	for i := range s.roads {
		tr := s.roads[i].Load()
		if tr == nil || tr.sealed == nil {
			continue
		}
		r := tr.sealed
		maxSeals = max(maxSeals, r.seals)
		if r.raw != nil {
			raw++
			continue
		}
		e, p, v, z := segModes(r)
		ef, packed, varint, width0 = ef+e, packed+p, varint+v, width0+z
	}
	return
}

// TierBoundaries lists the indices within one direction's event
// sequence at which a new block of the sealed run or the hot tail
// begins — the places a window cursor changes gear.
func TierBoundaries(s *Store, road planar.EdgeID, forward bool) []int {
	tr := s.loadTracker(road)
	if tr == nil || tr.sealed == nil {
		return nil
	}
	var out []int
	for b := range tr.sealed.blocks {
		f := tr.sealed.fwdRank(b * segBlockLen)
		if !forward {
			f = b*segBlockLen - f
		}
		out = append(out, f)
	}
	return append(out, tr.sealed.dirLen(forward))
}
