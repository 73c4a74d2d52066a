package core

import (
	"math"
	"testing"

	"repro/internal/planar"
)

// tierTestStore seals one road's forward direction, HotKeep 64 /
// SealThreshold 256 at a 1 s tick, into three segments — the first with
// a width-0 block (128 events at one instant), the second raw (off-grid
// timestamps), the third bit-packed or Elias–Fano — under a hot tail.
func tierTestStore(t *testing.T) (*Store, *Tracker, []CutRoad) {
	t.Helper()
	w := snapshotTestWorld(t)
	st := NewStore(w)
	if err := st.SetHistoryConfig(HistoryConfig{Tick: 1, HotKeep: 64, SealThreshold: 256}); err != nil {
		t.Fatal(err)
	}
	const road = planar.EdgeID(0)
	tail, head := w.TrackedEnds(road)
	tm := 100.0
	ingest := func(n int, step func(i int) float64) {
		batch := make([]Event, n)
		for i := range batch {
			tm += step(i)
			batch[i] = MoveEvent(road, tail, tm)
		}
		if err := st.RecordBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	ingest(300, func(i int) float64 { return float64(min(i/128, 1) * (1 + i%3)) })
	st.SealColdPrefixes()
	tm += 0.5 // off the grid, and back onto it for the 64 kept hot
	ingest(250, func(i int) float64 {
		if i == 186 {
			return 2.5
		}
		return float64(i % 4)
	})
	st.SealColdPrefixes()
	ingest(300, func(i int) float64 { return float64(i%5 + 7*(i%17/16)) })
	st.SealColdPrefixes()
	ingest(30, func(int) float64 { return 2 })
	tr := st.loadTracker(road)
	h := tr.hist(true)
	if h.hlen() == 0 || len(h.segs) < 3 || len(tr.fwd) == 0 {
		t.Fatalf("fixture sealed %d segments under %d hot events, want ≥ 3 and a tail", len(h.segs), len(tr.fwd))
	}
	raw, width0 := 0, 0
	for _, g := range h.segs {
		if g.raw != nil {
			raw++
			continue
		}
		_, _, _, w0 := segModes(g)
		width0 += w0
	}
	if raw != 1 || width0 == 0 {
		t.Fatalf("fixture sealed %d of %d segments raw and %d width-0 blocks, want one raw and a width-0 block", raw, len(h.segs), width0)
	}
	return st, tr, []CutRoad{{Road: road, Inside: head}}
}

// TestCountInDirTierBoundaries is countInDir's boundary table: for every
// pair of probes around the tier and block boundaries — each block's
// start ± 1 tick, each segment's first and last, the hot tail's first,
// the last event, NaN, ±Inf — inverted pairs included, the fused count
// equals both the difference of two Counts and the count off Events.
// CutFlow and CountCuts allocate nothing on the store.
func TestCountInDirTierBoundaries(t *testing.T) {
	st, tr, cuts := tierTestStore(t)
	events := tr.Events(true)
	probes := []float64{tr.fwd[0], events[len(events)-1], math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, g := range tr.hist(true).segs {
		probes = append(probes, g.first, g.last)
		for _, b := range g.blocks {
			start := float64(b.startTick) * g.tick
			probes = append(probes, start-g.tick, start, start+g.tick)
		}
	}
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
			got := tr.countInDir(true, t1, t2)
			if diff := tr.Count(true, t2) - tr.Count(true, t1); got != diff {
				t.Fatalf("countInDir(%v, %v) = %d, Count difference %d", t1, t2, got, diff)
			}
			if want := ref(t2) - ref(t1); got != want {
				t.Fatalf("countInDir(%v, %v) = %d, Events say %d", t1, t2, got, want)
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
