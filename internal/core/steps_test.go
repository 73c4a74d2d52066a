package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Tests of the static kernel's two paths (steps.go): the grid path
// pinned entry for entry to the sort path on each side of every
// condition that selects it, the timestamp key the sort path's radix
// sort orders by, the sum of step functions a sharded store and a router
// answer with, and a fuzzed store whose static counts must equal the
// reference's.

// edgeFloats are the floats where an order-preserving key is easiest to
// get wrong: both infinities, both zeros, the extremes of the finite and
// subnormal ranges, and neighbours one ulp apart on either side of them.
var edgeFloats = func() []float64 {
	base := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, -2, -1, -0.5, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.Float64frombits(0x0010000000000000), // largest subnormal, smallest normal
		0.5, 1, 2, 1e300, math.MaxFloat64, math.Inf(1),
	}
	var out []float64
	for _, t := range base {
		out = append(out, t, math.Nextafter(t, math.Inf(-1)), math.Nextafter(t, math.Inf(1)))
	}
	return out
}()

// TestTimeKeyOrder: timeKey is strictly monotone over every pair of
// distinct floats, equal exactly on -0/+0, and keyTime gives the float
// back — bit for bit, but for -0, which comes back as +0.
func TestTimeKeyOrder(t *testing.T) {
	ts := slices.Clone(edgeFloats)
	rng := rand.New(rand.NewSource(1))
	for len(ts) < 400 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) {
			ts = append(ts, f)
		}
	}
	for _, a := range ts {
		back := keyTime(timeKey(a))
		if back != a || math.Float64bits(back) != math.Float64bits(a+0) {
			t.Fatalf("keyTime(timeKey(%v)) = %v (bits %#x), want %v", a, back, math.Float64bits(back), a)
		}
		for _, b := range ts {
			ka, kb := timeKey(a), timeKey(b)
			if (a < b) != (ka < kb) || (a == b) != (ka == kb) {
				t.Fatalf("timeKey(%v) = %#x, timeKey(%v) = %#x: key order disagrees with float order", a, ka, b, kb)
			}
		}
	}
	if timeKey(math.Copysign(0, -1)) != timeKey(0) {
		t.Fatal("-0 and +0 have different keys")
	}
}

// sumStepsReference is SumSteps' specification: a map from instant to
// net change, the cancelled instants dropped, the rest sorted.
func sumStepsReference(lists [][]SignedEvent) []SignedEvent {
	net := map[float64]int{}
	for _, l := range lists {
		for _, st := range l {
			net[st.T] += st.Delta
		}
	}
	var ts []float64
	for t, d := range net {
		if d != 0 {
			ts = append(ts, t)
		}
	}
	slices.Sort(ts)
	out := make([]SignedEvent, len(ts))
	for i, t := range ts {
		out[i] = SignedEvent{T: t, Delta: net[t]}
	}
	return out
}

// fuzzStepLists turns bytes into valid step lists: data[0] picks how
// many (0–8), then every byte triple is one entry — which list, which
// instant (a quarter-second grid of 60 s, so lists tie, or one of the
// edge floats), which delta (a signed byte, so entries cancel). Each
// list is then sorted and its own ties summed, dropping zero sums, so
// it is strictly increasing with no zero delta.
func fuzzStepLists(data []byte) [][]SignedEvent {
	if len(data) == 0 {
		return nil
	}
	lists := make([][]SignedEvent, data[0]%9)
	if len(lists) == 0 {
		return lists
	}
	for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
		t := float64(rest[1]) / 4
		if rest[1] >= 240 {
			t = edgeFloats[int(rest[1]-240)*len(edgeFloats)/16]
		}
		l := &lists[int(rest[0])%len(lists)]
		*l = append(*l, SignedEvent{T: t, Delta: int(int8(rest[2]))})
	}
	for i, l := range lists {
		slices.SortFunc(l, func(a, b SignedEvent) int { return cmp.Compare(a.T, b.T) })
		out := l[:0]
		for j := 0; j < len(l); {
			st := l[j]
			for j++; j < len(l) && l[j].T == st.T; j++ {
				st.Delta += l[j].Delta
			}
			if st.Delta != 0 {
				out = append(out, st)
			}
		}
		lists[i] = out
	}
	return lists
}

// FuzzSumSteps holds SumSteps to its map-and-sort reference over
// arbitrary valid step lists — any number of them, entries that tie and
// cancel across lists, instants at the edges of the float range — and
// checks it appends to dst without touching what dst held. `make check`
// runs a 10s smoke.
func FuzzSumSteps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{1, 0, 40, 1, 0, 44, 255})
	f.Add([]byte{2, 0, 40, 1, 1, 40, 255, 0, 41, 3, 1, 41, 2})
	f.Add([]byte{5, 0, 240, 1, 1, 241, 2, 2, 246, 9, 3, 247, 7, 4, 255, 128, 0, 7, 127, 1, 7, 129})
	long := make([]byte, 601)
	for i := range long {
		long[i] = byte(i*37 + i/3)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		lists := fuzzStepLists(data)
		want := sumStepsReference(lists)
		prefix := SignedEvent{T: math.NaN(), Delta: 42}
		got := SumSteps([]SignedEvent{prefix}, lists)
		if !math.IsNaN(got[0].T) || got[0].Delta != 42 {
			t.Fatalf("SumSteps overwrote dst's first entry: %+v", got[0])
		}
		got = got[1:]
		if len(got) != len(want) {
			t.Fatalf("SumSteps gave %d steps, reference %d\ngot  %v\nwant %v", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i].T != want[i].T || got[i].Delta != want[i].Delta {
				t.Fatalf("step %d = %+v, reference %+v", i, got[i], want[i])
			}
		}
	})
}

// perimeterEvent is a crossing of cut cr at t, into the region when in:
// a move over a road, an Enter or Leave at a gateway's world edge.
func perimeterEvent(w *roadnet.World, cr CutRoad, in bool, t float64) Event {
	switch {
	case int(cr.Road) >= w.NumRoads() && in:
		return EnterEvent(cr.Inside, t)
	case int(cr.Road) >= w.NumRoads():
		return LeaveEvent(cr.Inside, t)
	case in:
		return MoveEvent(cr.Road, w.Star.Edge(cr.Road).Other(cr.Inside), t)
	}
	return MoveEvent(cr.Road, cr.Inside, t)
}

// gatewayPerimeter returns the perimeter of the one-junction region
// around a gateway with at least two roads: its roads and its world edge.
func gatewayPerimeter(t testing.TB, w *roadnet.World) []CutRoad {
	t.Helper()
	for _, g := range w.AscendingGateways() {
		if len(w.Star.Incident(g)) >= 2 {
			r, err := NewRegion(w, []planar.NodeID{g})
			if err != nil {
				t.Fatal(err)
			}
			return r.Perimeter()
		}
	}
	t.Fatal("no gateway with two roads")
	return nil
}

// TestGridStepsMatchSortPath pins the grid path to the sort path: on
// each side of every condition that selects the grid — a raw run, runs
// of two ticks, an off-grid hot crossing inside and outside the window,
// a span at the slot cap and one past it, bounds before the first event,
// past the last, ±Inf and NaN, inverted windows, −0 and negative times,
// a 0.25 s tick — a window the grid takes gives the sort path's base and
// steps bit for bit, and one it refuses appends nothing and leaves every
// slot and mark zero, so that the next window on the same scratch is
// answered right.
func TestGridStepsMatchSortPath(t *testing.T) {
	w := snapshotTestWorld(t)
	cuts := gatewayPerimeter(t, w)
	// ingest puts ts (non-decreasing, each instant twice) on the cuts
	// round robin, a cut's crossings going in and out by turns of two.
	ingest := func(t *testing.T, st *Store, cuts []CutRoad, ts ...float64) {
		t.Helper()
		batch := make([]Event, len(ts))
		for i, tm := range ts {
			batch[i] = perimeterEvent(w, cuts[i%len(cuts)], i/(2*len(cuts))%2 == 0, tm)
		}
		if err := st.RecordBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	span := func(lo, hi, step float64) []float64 {
		var ts []float64
		for tm := lo; tm <= hi; tm += step {
			ts = append(ts, tm, tm)
		}
		return ts
	}
	configure := func(t *testing.T, st *Store, tick float64) {
		t.Helper()
		if err := st.SetHistoryConfig(HistoryConfig{Tick: tick, HotKeep: 2, SealThreshold: 6}); err != nil {
			t.Fatal(err)
		}
	}
	// runs reports whether some perimeter run is raw and the ticks of the
	// quantized ones.
	runs := func(st *Store, cuts []CutRoad) (raw bool, ticks []float64) {
		for _, cr := range cuts {
			if tr := st.loadTracker(cr.Road); tr != nil && tr.sealed != nil {
				raw = raw || tr.sealed.raw != nil
				if tr.sealed.raw == nil && !slices.Contains(ticks, tr.sealed.tick) {
					ticks = append(ticks, tr.sealed.tick)
				}
			}
		}
		return raw, ticks
	}
	const slots = gridSlots
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	type window struct {
		t1, t2 float64
		grid   bool
	}
	// Windows of the 1 s-tick cases without off-grid crossings: each side
	// of the span cap and of finiteness, bounds beyond the events,
	// inverted and empty windows.
	onGrid := []window{
		{10.5, 50.5, true}, {20, 20, true}, {-500, 900, true}, {-500, -100, true}, {900, 1000, true},
		{0, slots, true}, {-0.5, slots - 0.5, true}, {0, slots + 1, false}, {-1, slots, false},
		{-inf, 50, false}, {10, inf, false}, {-inf, inf, false}, {nan, 50, false}, {10, nan, false}, {50, 10, false},
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *Store
		cuts  []CutRoad
		// windows[0] must hold steps; it is also asked again after every
		// window, on the same scratch.
		windows []window
	}{
		{"hot-negative-zero", func(t *testing.T) *Store {
			st := NewStore(w)
			ingest(t, st, cuts, append(span(-40, -1, 1), negZero, 0, negZero, 0, 0, 0, 1, 1, 2, 3)...)
			return st
		}, cuts, append([]window{{-41, 5, true}, {-1, 0, true}, {negZero, 5, true}, {-30.5, -0.5, true}, {-2, negZero, true}}, onGrid...)},
		{"sealed-tick-1", func(t *testing.T) *Store {
			st := NewStore(w)
			configure(t, st, 1)
			ingest(t, st, cuts, span(0, 300, 1)...)
			st.SealColdPrefixes()
			ingest(t, st, cuts, span(301, 340, 1)...)
			if raw, ticks := runs(st, cuts); raw || !slices.Equal(ticks, []float64{1}) {
				t.Fatalf("fixture: raw %v, ticks %v", raw, ticks)
			}
			return st
		}, cuts, append([]window{{250, 320, true}, {10, 50, true}, {300, 301, true}, {340, 350, true}}, onGrid...)},
		{"sealed-tick-quarter", func(t *testing.T) *Store {
			st := NewStore(w)
			configure(t, st, 0.25)
			ingest(t, st, cuts, span(-20, 60, 0.25)...)
			st.SealColdPrefixes()
			ingest(t, st, cuts, span(60.25, 70, 0.75)...)
			if raw, ticks := runs(st, cuts); raw || !slices.Equal(ticks, []float64{0.25}) {
				t.Fatalf("fixture: raw %v, ticks %v", raw, ticks)
			}
			return st
		}, cuts, []window{{-20, 70, true}, {-0.1, 0.3, true}, {55.6, 65.6, true}, {0, slots / 4, true}, {0, slots/4 + 0.25, false}, {-inf, 0, false}}},
		{"off-grid-hot", func(t *testing.T) *Store {
			st := NewStore(w)
			configure(t, st, 1)
			ingest(t, st, cuts, span(0, 300, 1)...)
			st.SealColdPrefixes()
			ingest(t, st, cuts, 301, 302, 302.5, 303, 304)
			return st
		}, cuts, []window{{290, 302, true}, {290, 310, false}, {302, 302.5, false}, {302.5, 310, true}, {303, 400, true}}},
		{"raw-run", func(t *testing.T) *Store {
			st := NewStore(w)
			configure(t, st, 1)
			ingest(t, st, cuts, append(span(0, 100, 1), 100.5, 101, 102)...)
			ingest(t, st, cuts, span(103, 120, 1)...)
			st.SealColdPrefixes()
			if raw, _ := runs(st, cuts); !raw {
				t.Fatal("fixture: no raw run")
			}
			return st
		}, cuts, []window{{10, 50, false}, {110, 115, false}}},
		{"two-ticks", func(t *testing.T) *Store {
			st := NewStore(w)
			configure(t, st, 0.25)
			ingest(t, st, cuts[:1], span(0, 20, 1)...)
			st.SealColdPrefixes()
			configure(t, st, 1)
			ingest(t, st, cuts[1:2], span(0, 20, 1)...)
			st.SealColdPrefixes()
			if _, ticks := runs(st, cuts); len(ticks) != 2 {
				t.Fatalf("fixture: ticks %v", ticks)
			}
			return st
		}, cuts, []window{{5, 15, false}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.build(t)
			check := func(sc *stepScratch, cuts []CutRoad, win window) {
				t.Helper()
				sb, sorted := sc.sortSteps(st, cuts, win.t1, win.t2, nil)
				gb, gridded, ok := sc.gridSteps(st, cuts, win.t1, win.t2, nil)
				if ok != win.grid {
					t.Fatalf("window (%v, %v]: grid path taken = %v, want %v", win.t1, win.t2, ok, win.grid)
				}
				if !ok {
					if len(gridded) != 0 {
						t.Fatalf("window (%v, %v]: a refused grid pass appended %d steps", win.t1, win.t2, len(gridded))
					}
					if g := sc.grid; g != nil && (g.slots != [gridSlots]int{} || g.marks != [gridSlots / 64]uint64{}) {
						t.Fatalf("window (%v, %v]: a refused grid pass left slots or marks set", win.t1, win.t2)
					}
				} else if math.Float64bits(gb) != math.Float64bits(sb) || len(gridded) != len(sorted) {
					t.Fatalf("window (%v, %v]: grid base %v with %d steps, sort path %v with %d", win.t1, win.t2, gb, len(gridded), sb, len(sorted))
				} else {
					for i := range sorted {
						if math.Float64bits(gridded[i].T) != math.Float64bits(sorted[i].T) || gridded[i].Delta != sorted[i].Delta {
							t.Fatalf("window (%v, %v]: grid step %d = %+v, sort path %+v", win.t1, win.t2, i, gridded[i], sorted[i])
						}
					}
				}
				// The dispatcher answers as the sort path does, either way.
				base, steps := st.StaticSteps(cuts, win.t1, win.t2, nil)
				if !(base == sb || math.IsNaN(base) && math.IsNaN(sb)) || !slices.Equal(steps, sorted) {
					t.Fatalf("window (%v, %v]: StaticSteps = %v %v, sort path %v %v", win.t1, win.t2, base, steps, sb, sorted)
				}
			}
			probe := tc.windows[0]
			if _, steps := st.StaticSteps(tc.cuts, probe.t1, probe.t2, nil); len(steps) == 0 {
				t.Fatalf("window (%v, %v] holds no steps: the case is vacuous", probe.t1, probe.t2)
			}
			sc := new(stepScratch)
			for _, win := range tc.windows {
				check(sc, tc.cuts, win)
				check(sc, tc.cuts, probe)
			}
			if tc.name == "two-ticks" {
				// Either cut alone is on one grid: the 0.25 s one only when
				// the store's tick is 0.25 again.
				check(sc, tc.cuts[1:2], window{5, 15, true})
				check(sc, tc.cuts[:1], window{5, 15, false})
				configure(t, st, 0.25)
				check(sc, tc.cuts[:1], window{5, 15, true})
				check(sc, tc.cuts[:2], window{5, 15, false})
			}
		})
	}
}

// FuzzStaticCount holds StaticCount, grid path and sort path, to the
// gather-sort-scan reference over stores built from fuzz bytes: crossings
// of a gateway's perimeter, in and out, on a 1 s or 0.25 s tick and off
// it, sealed at fuzzed points — with the tick switched between seals —
// or left hot, probed over fuzzed windows and the extremes. `make check`
// runs a 10s smoke.
//
// data[0] picks the tick (bit 0: 0.25 s, else 1 s) and whether history
// is tiered (bit 1); every byte triple after it is one crossing: which
// cut and direction, the step from the previous crossing in ticks (a
// high nibble of 15 puts it a third of a tick off the grid, 14 back on),
// and a command (255 seals, 254 seals and switches the tick).
func FuzzStaticCount(f *testing.F) {
	f.Add([]byte{0}, int16(0), uint16(400))
	f.Add([]byte{2, 0, 1, 255, 1, 1, 0, 2, 0, 255, 3, 1, 0, 0, 2, 0}, int16(-3), uint16(20))
	f.Add([]byte{3, 0, 1, 0, 1, 2, 0, 2, 3, 255, 3, 0xf1, 0, 4, 0xe1, 0, 5, 1, 255}, int16(2), uint16(40))
	f.Add([]byte{2, 0, 1, 0, 1, 1, 254, 2, 2, 0, 3, 2, 255, 4, 0, 0}, int16(0), uint16(65535))
	long := make([]byte, 901)
	long[0] = 2
	for i := 1; i < len(long); i++ {
		long[i] = byte(i*29 + i/7)
	}
	f.Add(long, int16(100), uint16(3000))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 5, NY: 5, Spacing: 100}, rand.New(rand.NewSource(7)))
	if err != nil {
		f.Fatal(err)
	}
	cuts := gatewayPerimeter(f, w)
	region := NewCompiledRegion(w, nil, cuts, len(cuts), nil)
	f.Fuzz(func(t *testing.T, data []byte, w1 int16, w2 uint16) {
		if len(data) == 0 {
			return
		}
		tick := 1.0
		if data[0]&1 != 0 {
			tick = 0.25
		}
		st := NewStore(w)
		configure := func() {
			if err := st.SetHistoryConfig(HistoryConfig{Tick: tick, HotKeep: 2, SealThreshold: 5}); err != nil {
				t.Fatal(err)
			}
		}
		if data[0]&2 != 0 {
			configure()
		}
		clock := 0.0
		var batch []Event
		flush := func() {
			if err := st.RecordBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
		for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
			cr := cuts[int(rest[0]&0x0f)%len(cuts)]
			switch rest[1] >> 4 {
			case 15:
				clock += tick / 3
			case 14:
				clock = math.Ceil(clock/tick) * tick
			}
			clock += float64(rest[1]&0x0f) * tick
			batch = append(batch, perimeterEvent(w, cr, rest[0]&0x10 != 0, clock))
			switch rest[2] {
			case 254:
				tick = 1.25 - tick
				fallthrough
			case 255:
				flush()
				configure()
				st.SealColdPrefixes()
			}
		}
		flush()
		t1 := float64(w1) * 0.25
		for _, win := range [][2]float64{{t1, t1 + float64(w2)*0.25}, {t1, t1}, {math.Inf(-1), t1}, {-1, clock + 1}, {t1 + 0.1, clock}} {
			got := StaticCount(st, region, win[0], win[1])
			if want := staticCountReference(st, region, win[0], win[1]); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("window (%v, %v]: StaticCount = %v, reference = %v", win[0], win[1], got, want)
			}
		}
	})
}
