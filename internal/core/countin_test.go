package core

import (
	"math"
	"testing"

	"repro/internal/planar"
)

// countInDir is Count(forward, t2) − Count(forward, t1) off the sealed
// run's fused pair of ranks and the hot tail's countIn: the
// per-direction reading of what Tracker.netIn fuses for both.
func (tr *Tracker) countInDir(forward bool, t1, t2 float64) int {
	p1, p2 := tr.sealed.countPair(t1, t2)
	f1, f2 := tr.sealed.fwdRank(p1), tr.sealed.fwdRank(p2)
	n := f2 - f1
	if !forward {
		n = (p2 - f2) - (p1 - f1)
	}
	return n + countIn(tr.hot(forward), t1, t2)
}

// window is the per-direction reading of the static kernel's cursor:
// one direction's count at t1 and its timestamps in (t1, t2] appended
// to dst, off the sealed run's window split by direction bit and the hot
// tail's.
func (tr *Tracker) window(forward bool, t1, t2 float64, dst []float64) (int, []float64) {
	r := tr.sealed
	le, all := r.window(t1, t2, nil)
	n := r.fwdRank(le)
	if !forward {
		n = le - n
	}
	for i, t := range all {
		if r.isFwd(le+i) == forward {
			dst = append(dst, t)
		}
	}
	hot := tr.hot(forward)
	lo := countLE(hot, t1)
	return n + lo, append(dst, hot[lo:lo+countLE(hot[lo:], t2)]...)
}

// tierTestStore seals both directions of one road, HotKeep 64 /
// SealThreshold 256 at a 1 s tick, over three seal passes under hot
// tails: a width-0 block (128 forward events at one instant), reverse
// seals whose events precede the run's last — so the run is re-encoded
// from inside — and ties across directions. With offGrid one reverse
// event is off the grid, and the run is kept raw.
func tierTestStore(t *testing.T, offGrid bool) (*Store, *Tracker, []CutRoad) {
	t.Helper()
	w := snapshotTestWorld(t)
	st := NewStore(w)
	if err := st.SetHistoryConfig(HistoryConfig{Tick: 1, HotKeep: 64, SealThreshold: 256}); err != nil {
		t.Fatal(err)
	}
	const road = planar.EdgeID(0)
	tail, head := w.TrackedEnds(road)
	tf, tv := 100.0, 100.0
	ingest := func(n int, from planar.NodeID, tm *float64, step func(i int) float64) {
		batch := make([]Event, n)
		for i := range batch {
			*tm += step(i)
			batch[i] = MoveEvent(road, from, *tm)
		}
		if err := st.RecordBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	ingest(300, tail, &tf, func(i int) float64 { return float64(min(i/128, 1) * (1 + i%3)) })
	ingest(120, head, &tv, func(i int) float64 { return float64(i % 3) })
	st.SealColdPrefixes()
	ingest(250, head, &tv, func(i int) float64 {
		if offGrid && i == 186 {
			return 2.5
		}
		return float64(i % 4)
	})
	ingest(250, tail, &tf, func(i int) float64 { return float64(i % 4) })
	st.SealColdPrefixes()
	ingest(300, head, &tv, func(i int) float64 { return float64(i%5 + 7*(i%17/16)) })
	st.SealColdPrefixes()
	ingest(30, tail, &tf, func(int) float64 { return 2 })
	ingest(20, head, &tv, func(int) float64 { return 3 })
	tr := st.loadTracker(road)
	r := tr.sealed
	if r.dirLen(true) == 0 || r.dirLen(false) == 0 || len(tr.fwd) == 0 || len(tr.rev) == 0 {
		t.Fatalf("fixture sealed %d forward and %d reverse events under %d and %d hot, want all four", r.dirLen(true), r.dirLen(false), len(tr.fwd), len(tr.rev))
	}
	if r.dirLast[1] > tr.fwd[0] == (r.dirLast[0] > tr.rev[0]) {
		t.Fatalf("fixture: want one direction's sealed tail past the other's hot head")
	}
	if (r.raw != nil) != offGrid {
		t.Fatalf("fixture sealed raw = %v, want %v", r.raw != nil, offGrid)
	}
	if !offGrid {
		if _, _, _, width0 := segModes(r); width0 == 0 {
			t.Fatalf("fixture sealed no width-0 block")
		}
	}
	return st, tr, []CutRoad{{Road: road, Inside: head}}
}

// TestCountInDirTierBoundaries is the fused counts' boundary table: for
// every pair of probes around the tier and block boundaries — each
// block's start ± 1 tick, the run's and each direction's first and last,
// each hot tail's first, NaN, ±Inf — inverted pairs included, on a
// block-encoded and a raw run, each direction's fused count equals both
// the difference of two Counts and the count off Events, and the fused
// perimeter terms (net, netIn) equal the differences of Counts.
// CutFlow and CountCuts allocate nothing on the store.
func TestCountInDirTierBoundaries(t *testing.T) {
	for _, offGrid := range []bool{false, true} {
		st, tr, cuts := tierTestStore(t, offGrid)
		r := tr.sealed
		probes := []float64{tr.fwd[0], tr.rev[0], r.first, r.last, math.NaN(), math.Inf(1), math.Inf(-1)}
		for d := range r.dirFirst {
			probes = append(probes, r.dirFirst[d], r.dirLast[d])
		}
		for _, b := range r.blocks {
			if r.raw == nil {
				start := float64(b.startTick) * r.tick
				probes = append(probes, start-r.tick, start, start+r.tick)
			}
		}
		for b := 0; r.raw != nil && b < len(r.blocks); b++ {
			start := r.raw[b*segBlockLen]
			probes = append(probes, start-1, start, start+1)
		}
		for _, forward := range []bool{true, false} {
			events := tr.Events(forward)
			probes = append(probes, events[len(events)-1])
			ref := func(t float64) int { // sort.Search's "≤ t": NaN counts everything
				n := 0
				for _, e := range events {
					if !(e > t) {
						n++
					}
				}
				return n
			}
			for _, t1 := range probes {
				for _, t2 := range probes {
					got := tr.countInDir(forward, t1, t2)
					if diff := tr.Count(forward, t2) - tr.Count(forward, t1); got != diff {
						t.Fatalf("off grid %v, forward %v: countInDir(%v, %v) = %d, Count difference %d", offGrid, forward, t1, t2, got, diff)
					}
					if want := ref(t2) - ref(t1); got != want {
						t.Fatalf("off grid %v, forward %v: countInDir(%v, %v) = %d, Events say %d", offGrid, forward, t1, t2, got, want)
					}
					net := func(t float64) int { return tr.Count(forward, t) - tr.Count(!forward, t) }
					if got, want := tr.net(forward, t2), net(t2); got != want {
						t.Fatalf("off grid %v, forward %v: net(%v) = %d, Counts say %d", offGrid, forward, t2, got, want)
					}
					if got, want := tr.netIn(forward, t1, t2), net(t2)-net(t1); got != want {
						t.Fatalf("off grid %v, forward %v: netIn(%v, %v) = %d, Counts say %d", offGrid, forward, t1, t2, got, want)
					}
				}
			}
		}
		i := 0
		if allocs := testing.AllocsPerRun(200, func() {
			i = (i + 7) % len(probes)
			st.CutFlow(cuts, probes[i], probes[(i+3)%len(probes)])
			st.CountCuts(cuts, probes[i])
		}); allocs != 0 {
			t.Fatalf("CutFlow + CountCuts allocate %.1f times per call, want 0", allocs)
		}
	}
}
