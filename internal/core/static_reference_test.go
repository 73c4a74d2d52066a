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
// +1 for crossings toward `toward`, −1 away; sealed events first, then
// the hot tail, per direction.
func (s *Store) refRoadEventsIn(road planar.EdgeID, toward planar.NodeID, t1, t2 float64, dst []SignedEvent) []SignedEvent {
	tr := s.loadTracker(road)
	if tr == nil {
		return dst
	}
	in := s.forward(road, toward)
	for _, d := range []struct {
		forward bool
		delta   int
	}{{in, +1}, {!in, -1}} {
		dst = refHistorySigned(tr.hist(d.forward), dst, d.delta, t1, t2)
		dst = refAppendSigned(dst, tr.hot(d.forward), d.delta, t1, t2)
	}
	return dst
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

// refHistorySigned appends the sealed events in (t1, t2]: two prefix
// counts bound the index range, and every block overlapping it is
// decoded whole.
func refHistorySigned(h *history, dst []SignedEvent, delta int, t1, t2 float64) []SignedEvent {
	lo, hi := h.countLE(t1), h.countLE(t2)
	if h == nil || hi <= lo {
		return dst
	}
	var buf [segBlockLen]float64
	for _, g := range h.segs {
		if g.startIdx+g.n <= lo || g.startIdx >= hi {
			continue
		}
		glo, ghi := lo-g.startIdx, hi-g.startIdx
		if glo < 0 {
			glo = 0
		}
		if ghi > g.n {
			ghi = g.n
		}
		if g.raw != nil {
			for _, t := range g.raw[glo:ghi] {
				dst = append(dst, SignedEvent{T: t, Delta: delta})
			}
			continue
		}
		for b := glo / segBlockLen; b*segBlockLen < ghi; b++ {
			n := g.decodeBlock(b, &buf)
			for j := 0; j < n; j++ {
				if i := b*segBlockLen + j; i >= glo && i < ghi {
					dst = append(dst, SignedEvent{T: buf[j], Delta: delta})
				}
			}
		}
	}
	return dst
}

// BlockModes reports how the store's sealed tier is encoded, for tests
// that must know they exercised every decoder: the number of
// Elias–Fano, bit-packed (width ≥ 1), varint and width-0 blocks, raw
// fallback segments, and the largest segment count of any one direction.
func BlockModes(s *Store) (ef, packed, varint, width0, raw, maxSegs int) {
	for i := range s.roads {
		tr := s.roads[i].Load()
		if tr == nil {
			continue
		}
		for _, h := range []*history{tr.fwdHist, tr.revHist} {
			if h == nil {
				continue
			}
			if len(h.segs) > maxSegs {
				maxSegs = len(h.segs)
			}
			for _, g := range h.segs {
				if g.raw != nil {
					raw++
					continue
				}
				e, p, v, z := segModes(g)
				ef, packed, varint, width0 = ef+e, packed+p, varint+v, width0+z
			}
		}
	}
	return
}

// TierBoundaries lists the indices within one direction's event
// sequence at which a new block, a new segment or the hot tail begins —
// the places a window cursor changes gear.
func TierBoundaries(s *Store, road planar.EdgeID, forward bool) []int {
	tr := s.loadTracker(road)
	if tr == nil {
		return nil
	}
	var out []int
	if h := tr.hist(forward); h != nil {
		for _, g := range h.segs {
			for b := 0; b*segBlockLen < g.n; b++ {
				out = append(out, g.startIdx+b*segBlockLen)
			}
		}
		out = append(out, h.n)
	}
	return out
}
