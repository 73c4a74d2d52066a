package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Tests of the exact static kernel (DESIGN.md §6, §7.2, §12): the tie
// rule on a constructed case, the kernel against the gather-sort-scan
// reference over every history encoding and window position — on one
// store and on sharded sets — its allocation contract, and its
// behaviour under concurrent ingestion and sealing.

// staticCounter is what StaticCount needs of a store; *core.Store and
// *partition.Set both are one.
type staticCounter interface {
	core.Counter
	core.StepLister
}

// cutsToward returns every road at junction j as a cut road with j
// inside: the perimeter of the one-junction region {j}.
func cutsToward(w *roadnet.World, j planar.NodeID) []core.CutRoad {
	var cuts []core.CutRoad
	for _, e := range w.Star.Incident(j) {
		cuts = append(cuts, core.CutRoad{Road: e, Inside: j})
	}
	return cuts
}

// TestStaticTieRule pins DESIGN.md §6's tie rule on the smallest case
// that needs it. One object sits in a one-junction region; at one tick
// inside the window it leaves over road A while another object enters
// over road B. Occupancy is 1 at every instant, so the static count is
// 1 — whichever road the perimeter lists first, hot or sealed. The old
// kernel compared after every event: listing A first it saw 1 → 0 → 1
// and answered 0, a value the occupancy never took.
func TestStaticTieRule(t *testing.T) {
	w, _ := shardWorld(t, 3)
	var j planar.NodeID = -1
	for n := 0; n < w.Star.NumNodes(); n++ {
		if len(w.Star.Incident(planar.NodeID(n))) >= 2 {
			j = planar.NodeID(n)
			break
		}
	}
	if j < 0 {
		t.Fatal("no junction with two roads")
	}
	cuts := cutsToward(w, j)
	a, b := cuts[0].Road, cuts[1].Road
	outside := func(road planar.EdgeID) planar.NodeID { return w.Star.Edge(road).Other(j) }

	for _, sealed := range []bool{false, true} {
		st := core.NewStore(w)
		if sealed {
			if err := st.SetHistoryConfig(core.HistoryConfig{Tick: 1, HotKeep: 1, SealThreshold: 2}); err != nil {
				t.Fatal(err)
			}
		}
		events := []core.Event{
			core.MoveEvent(a, outside(a), 10), // the first object enters over A
			core.MoveEvent(a, j, 20),          // ... and leaves over A at tick 20
			core.MoveEvent(b, outside(b), 20), // while the second enters over B
		}
		// Later traffic pushes the tie out of the hot tail when sealing.
		for i := 0; i < 4; i++ {
			events = append(events, core.MoveEvent(a, j, 100+float64(i)), core.MoveEvent(b, outside(b), 100+float64(i)))
		}
		if err := st.RecordBatch(events); err != nil {
			t.Fatal(err)
		}
		if sealed {
			st.SealColdPrefixes()
			if st.Memory().SealedEvents < 3 {
				t.Fatalf("tie not sealed: %+v", st.Memory())
			}
		}
		for _, order := range [][]core.CutRoad{{cuts[0], cuts[1]}, {cuts[1], cuts[0]}} {
			// Only A and B carry events; the junction's other roads add
			// nothing to either kernel.
			r := core.NewCompiledRegion(w, []planar.NodeID{j}, order, len(order), nil)
			base := core.SnapshotCount(st, r, 15)
			if base != 1 {
				t.Fatalf("sealed=%v: occupancy at 15 = %v, want 1", sealed, base)
			}
			got := core.StaticCount(st, r, 15, 25)
			if ref := core.StaticCountReference(st, r, 15, 25); got != base || ref != base {
				t.Errorf("sealed=%v perimeter %v: StaticCount = %v, reference = %v, want %v (occupancy never left it)", sealed, order, got, ref, base)
			}
		}
	}
}

// staticStyle shapes one direction's tick sequence so that sealing picks
// a particular encoding for it.
type staticStyle int

const (
	stylePacked  staticStyle = iota // small deltas: bit-packed blocks
	styleVarint                     // rare huge deltas: varint blocks
	styleWidth0                     // long runs of one tick: width-0 blocks
	styleOffGrid                    // off the tick grid: raw segments
	styleTraffic                    // skewed gaps of mean ≫ 128 ticks: Elias–Fano blocks
)

// staticStream draws n non-decreasing timestamps in the given style.
func staticStream(rng *rand.Rand, n int, style staticStyle) []float64 {
	ts := make([]float64, n)
	tv := int64(rng.Intn(50))
	for i := range ts {
		ts[i] = float64(tv)
		if style == styleOffGrid {
			ts[i] += 1.0 / 3
		}
		switch {
		case style == styleVarint && rng.Intn(60) == 0:
			tv += 1 << 34
		case style == styleWidth0 && i%400 < 300:
			// a run of 300 equal ticks spans whole blocks
		case rng.Intn(8) == 0:
			// a duplicate
		case style == styleTraffic:
			tv += int64(rng.ExpFloat64() * 500)
		default:
			tv += int64(1 + rng.Intn(6))
		}
	}
	return ts
}

// staticFixture is one seeded event set loaded into every store shape
// whose answers must agree: an unsealed store (the reference reads this
// one), a sealed twin, and sealed sets of 1, 2, 4 and 8 members.
type staticFixture struct {
	w       *roadnet.World
	ref     *core.Store
	sealed  *core.Store
	stores  map[string]staticCounter
	regions []*core.Region
}

// minGateway, when positive, raises every gateway's Enter and Leave
// stream to at least that many events (the draws stay where they were,
// so fixtures built with 0 keep their data).
func newStaticFixture(t *testing.T, seed int64, seal bool, styles []staticStyle, minGateway int) *staticFixture {
	t.Helper()
	w, _ := shardWorld(t, seed)
	rng := rand.New(rand.NewSource(seed))
	fx := &staticFixture{w: w, ref: core.NewStore(w), sealed: core.NewStore(w), stores: map[string]staticCounter{}}
	cfg := core.HistoryConfig{Tick: 1, HotKeep: 16, SealThreshold: 120}
	type sealer interface {
		SetHistoryConfig(core.HistoryConfig) error
		SealColdPrefixes() core.SealStats
		RecordBatch([]core.Event) error
	}
	all := []sealer{fx.sealed}
	fx.stores["unsealed"], fx.stores["sealed"] = fx.ref, fx.sealed
	for _, cells := range []int{1, 2, 4, 8} {
		lay, err := partition.Build(w, cells)
		if err != nil {
			t.Fatal(err)
		}
		set := partition.NewSet(w, lay)
		fx.stores[fmt.Sprintf("set-%d", cells)] = set
		all = append(all, set)
	}
	if seal {
		for _, s := range all {
			if err := s.SetHistoryConfig(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := w.Bounds()
	for _, f := range [][4]float64{{0, 0, 1, 1}, {0, 0, 0.55, 0.6}, {0.3, 0.25, 0.5, 0.5}, {0.5, 0.1, 0.5, 0.9}} {
		rect := geom.RectWH(b.Min.X+f[0]*b.Width()-1, b.Min.Y+f[1]*b.Height()-1, f[2]*b.Width()+2, f[3]*b.Height()+2)
		r, err := core.NewRegion(w, w.JunctionsIn(rect))
		if err != nil {
			t.Fatal(err)
		}
		fx.regions = append(fx.regions, r)
	}
	perimeter := map[planar.EdgeID]bool{}
	for _, r := range fx.regions {
		for _, cr := range r.CutRoads() {
			perimeter[cr.Road] = true
		}
	}
	// One stream per direction of every perimeter road and per side of
	// every gateway, cut into chunks; the streams are fed a chunk at a time in
	// a random interleaving, with seal passes in between, so histories
	// end up holding several segments.
	var streams [][][]core.Event
	add := func(n int, style staticStyle, mk func(t float64) core.Event) {
		var chunks [][]core.Event
		for ts := staticStream(rng, n, style); len(ts) > 0; {
			k := 1 + rng.Intn(200)
			if k > len(ts) {
				k = len(ts)
			}
			chunk := make([]core.Event, k)
			for i, t := range ts[:k] {
				chunk[i] = mk(t)
			}
			chunks, ts = append(chunks, chunk), ts[k:]
		}
		if len(chunks) > 0 {
			streams = append(streams, chunks)
		}
	}
	for road := 0; road < w.Star.NumEdges(); road++ {
		if !perimeter[planar.EdgeID(road)] {
			continue
		}
		e := w.Star.Edge(planar.EdgeID(road))
		for _, from := range []planar.NodeID{e.U, e.V} {
			road, from := planar.EdgeID(road), from
			add(rng.Intn(600), styles[rng.Intn(len(styles))], func(t float64) core.Event { return core.MoveEvent(road, from, t) })
		}
	}
	for _, g := range w.Gateways {
		g := g
		add(max(rng.Intn(300), minGateway), styles[rng.Intn(len(styles))], func(t float64) core.Event { return core.EnterEvent(g, t) })
		add(max(rng.Intn(300), minGateway), styles[rng.Intn(len(styles))], func(t float64) core.Event { return core.LeaveEvent(g, t) })
	}
	for len(streams) > 0 {
		i := rng.Intn(len(streams))
		chunk := streams[i][0]
		if streams[i] = streams[i][1:]; len(streams[i]) == 0 {
			streams[i] = streams[len(streams)-1]
			streams = streams[:len(streams)-1]
		}
		if err := fx.ref.RecordBatch(chunk); err != nil {
			t.Fatal(err)
		}
		for _, s := range all {
			if err := s.RecordBatch(chunk); err != nil {
				t.Fatal(err)
			}
		}
		if seal && rng.Intn(40) == 0 {
			for _, s := range all {
				s.SealColdPrefixes()
			}
		}
	}
	if seal {
		for _, s := range all {
			s.SealColdPrefixes()
		}
	}
	return fx
}

// windowBounds picks the instants worth using as window ends for region
// r: the extremes, instants before the first and after the last event,
// and — per perimeter direction — the events on either side of every
// block, segment and sealed→hot boundary, plus a random sample.
func (fx *staticFixture) windowBounds(rng *rand.Rand, r *core.Region) []float64 {
	bounds := []float64{math.Inf(-1), -5, math.Inf(1), math.NaN()}
	for _, cr := range r.CutRoads() {
		tr := fx.ref.RoadTracker(cr.Road)
		for _, fwd := range []bool{true, false} {
			ts := tr.Events(fwd)
			if len(ts) == 0 {
				continue
			}
			if rng.Intn(4) != 0 {
				continue
			}
			bounds = append(bounds, ts[len(ts)-1]+1)
			for _, i := range core.TierBoundaries(fx.sealed, cr.Road, fwd) {
				if i > 0 && i < len(ts) && rng.Intn(3) == 0 {
					bounds = append(bounds, ts[i-1], ts[i])
				}
			}
			bounds = append(bounds, ts[rng.Intn(len(ts))], ts[rng.Intn(len(ts))]+0.5)
		}
	}
	return bounds
}

// TestStaticCountMatchesReference is the kernel's property table: over
// hot-only, bit-packed, varint, Elias–Fano, width-0, raw and mixed many-segment
// histories, with gateways carrying world events, every store shape
// answers == the reference read off the unsealed store, for windows
// that start before the first event, end after the last, are empty or
// inverted, lie inside one block, straddle block, segment and
// sealed→hot boundaries, or collapse to t1 == t2.
func TestStaticCountMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		seal   bool
		styles []staticStyle
		// want names the sealed encoding the case must have produced.
		want func(ef, packed, varint, width0, raw, maxSegs int) bool
		// minGateway is the floor on every gateway's Enter and Leave
		// stream: two sealed blocks' worth in the last case, where the
		// world edges' history must be history like any road's.
		minGateway int
	}{
		{"hot-only", false, []staticStyle{stylePacked, styleOffGrid}, func(e, p, v, z, r, s int) bool { return e+p+v+z+r == 0 }, 0},
		{"bit-packed", true, []staticStyle{stylePacked}, func(e, p, v, z, r, s int) bool { return p > 0 && v+r == 0 }, 0},
		{"varint", true, []staticStyle{styleVarint}, func(e, p, v, z, r, s int) bool { return v > 0 && r == 0 }, 0},
		{"width-0", true, []staticStyle{styleWidth0}, func(e, p, v, z, r, s int) bool { return z > 20 && r == 0 }, 0},
		{"raw", true, []staticStyle{styleOffGrid}, func(e, p, v, z, r, s int) bool { return r > 0 && e+p+v+z == 0 }, 0},
		{"mixed", true, []staticStyle{stylePacked, styleVarint, styleTraffic, styleWidth0, styleOffGrid}, func(e, p, v, z, r, s int) bool {
			return e > 0 && p > 0 && v > 0 && z > 0 && r > 0 && s >= 3
		}, 0},
		{"elias-fano", true, []staticStyle{styleTraffic}, func(e, p, v, z, r, s int) bool { return e > 20 && r == 0 }, 0},
		{"gateway-history", true, []staticStyle{stylePacked, styleVarint, styleTraffic}, func(e, p, v, z, r, s int) bool { return e+p+v > 0 && r == 0 }, 2*128 + 120 + 1},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newStaticFixture(t, int64(200+ci), tc.seal, tc.styles, tc.minGateway)
			if e, p, v, z, r, s := core.BlockModes(fx.sealed); !tc.want(e, p, v, z, r, s) {
				t.Fatalf("sealed tier holds %d Elias–Fano / %d packed / %d varint / %d width-0 blocks, %d raw segments, ≤ %d segments a direction: not the case's encoding", e, p, v, z, r, s)
			}
			if tc.minGateway > 0 {
				for _, g := range fx.w.Gateways {
					tr := fx.sealed.RoadTracker(fx.w.WorldEdge(g))
					if in, out := tr.SealedLen(true), tr.SealedLen(false); in < 2*128 || out < 2*128 {
						t.Fatalf("gateway %d: %d Enter and %d Leave events sealed, want two blocks of each", g, in, out)
					}
				}
			}
			rng := rand.New(rand.NewSource(int64(ci)))
			gateways, moved := 0, 0
			for ri, r := range fx.regions {
				for _, g := range fx.w.Gateways {
					if tr := fx.ref.RoadTracker(fx.w.WorldEdge(g)); r.Contains(g) && len(tr.Events(true))+len(tr.Events(false)) > 0 {
						gateways++
					}
				}
				bounds := fx.windowBounds(rng, r)
				for k := 0; k < 60; k++ {
					t1, t2 := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
					switch k % 5 {
					case 0:
						t2 = t1
					case 1, 2, 3:
						if t2 < t1 {
							t1, t2 = t2, t1
						}
					}
					want := core.StaticCountReference(fx.ref, r, t1, t2)
					if want != core.SnapshotCount(fx.ref, r, t1) {
						moved++
					}
					for name, st := range fx.stores {
						if got := core.StaticCount(st, r, t1, t2); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
							t.Fatalf("%s, region %d, window (%v, %v]: StaticCount = %v, reference = %v", name, ri, t1, t2, got, want)
						}
					}
				}
			}
			if gateways == 0 || moved == 0 {
				t.Fatalf("vacuous: %d gateways inside the regions, %d windows whose minimum lies below the start", gateways, moved)
			}
		})
	}
}

// TestStaticCountNoAllocs: after warm-up the kernel allocates nothing —
// hot and warm tiers, one store and a 4-member in-memory set, over a
// window the grid path answers and one wider than its slot cap, which
// the sort path answers.
func TestStaticCountNoAllocs(t *testing.T) {
	// The kernel's scratch lives in sync.Pools, and the race detector
	// makes Put drop a quarter of what it is given, on purpose.
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		probe.Put(new(int))
		if probe.Get() == nil {
			t.Skip("sync.Pool does not retain here (race detector): pooled scratch cannot be allocation-free")
		}
	}
	for _, seal := range []bool{false, true} {
		fx := newStaticFixture(t, 67, seal, []staticStyle{stylePacked, styleVarint}, 0)
		// A one-junction region with traffic and without gateways.
		var region *core.Region
		var t1 float64
		for j := 0; j < fx.w.Star.NumNodes() && region == nil; j++ {
			r, err := core.NewRegion(fx.w, []planar.NodeID{planar.NodeID(j)})
			if err != nil {
				t.Fatal(err)
			}
			_, steps := fx.ref.StaticSteps(r.CutRoads(), math.Inf(-1), math.Inf(1), nil)
			if !fx.w.IsGateway(planar.NodeID(j)) && len(steps) >= 100 {
				region, t1 = r, steps[len(steps)/4].T
			}
		}
		if region == nil {
			t.Fatal("no gateway-free junction with traffic")
		}
		// The set's members hold the same edges' histories as the single
		// stores, so they take the same path.
		single := fx.ref
		if seal {
			single = fx.sealed
		}
		for _, win := range []struct {
			t2   float64
			grid bool
		}{{t1 + core.GridSlots, true}, {t1 + 2*core.GridSlots, false}} {
			if got := core.OnGrid(single, region.CutRoads(), t1, win.t2); got != win.grid {
				t.Fatalf("seal=%v window (%v, %v]: grid path = %v, want %v", seal, t1, win.t2, got, win.grid)
			}
			for _, name := range []string{"unsealed", "sealed", "set-4"} {
				st := fx.stores[name]
				if _, steps := st.StaticSteps(region.CutRoads(), t1, win.t2, nil); len(steps) < 10 {
					t.Fatalf("%s: only %d steps in the window; test is vacuous", name, len(steps))
				}
				core.StaticCount(st, region, t1, win.t2) // warm the pools
				if allocs := testing.AllocsPerRun(100, func() { core.StaticCount(st, region, t1, win.t2) }); allocs != 0 {
					t.Errorf("seal=%v grid=%v %s: StaticCount allocates %.1f times per call, want 0", seal, win.grid, name, allocs)
				}
			}
		}
	}
}

// TestStaticConcurrentWithIngestAndSeal runs static queries against
// concurrent RecordBatch and SealColdPrefixes (run it under -race). The
// writers only add crossings *into* the region, stamped inside the
// queried windows, so occupancy — and with it the static count — can
// only rise as they land: every answer must lie between the answer of
// the store before the writers started and the answer of the store
// after they finished. The kernel reads a road's base and steps from one
// tracker snapshot, so no interleaving of appends and seals can make the
// two halves of an answer disagree.
func TestStaticConcurrentWithIngestAndSeal(t *testing.T) {
	w, wl := shardWorld(t, 83)
	base := toCoreEvents(t, wl)
	for i := range base {
		base[i].T = math.Floor(base[i].T)
	}
	horizon := 0.0
	for _, ev := range base {
		horizon = math.Max(horizon, ev.T)
	}
	b := w.Bounds()
	region, err := core.NewRegion(w, w.JunctionsIn(geom.RectWH(b.Min.X+0.2*b.Width(), b.Min.Y+0.2*b.Height(), 0.5*b.Width(), 0.5*b.Height())))
	if err != nil {
		t.Fatal(err)
	}
	cuts := region.CutRoads()
	if len(cuts) < 8 {
		t.Fatalf("region has %d cut roads", len(cuts))
	}
	build := func() *core.Store {
		st := core.NewStore(w)
		if err := st.SetHistoryConfig(core.HistoryConfig{Tick: 1, HotKeep: 4, SealThreshold: 12}); err != nil {
			t.Fatal(err)
		}
		if err := st.RecordBatch(base); err != nil {
			t.Fatal(err)
		}
		return st
	}
	before, live := build(), build()
	before.SealColdPrefixes()

	// Each writer owns a slice of the perimeter and feeds it inward
	// crossings at ticks horizon+1 … horizon+steps, in small batches, no
	// faster than the readers sample: step s waits for the s-th answer.
	const writers, steps = 4, 150
	var writeWG, wg sync.WaitGroup
	var sampled atomic.Int64
	stop := make(chan struct{})
	for wr := 0; wr < writers; wr++ {
		writeWG.Add(1)
		go func(wr int) {
			defer writeWG.Done()
			for s := 1; s <= steps; s++ {
				for sampled.Load() < int64(s) {
					runtime.Gosched()
				}
				var batch []core.Event
				for i := wr; i < len(cuts); i += writers {
					cr := cuts[i]
					batch = append(batch, core.MoveEvent(cr.Road, w.Star.Edge(cr.Road).Other(cr.Inside), horizon+float64(s)))
				}
				if err := live.RecordBatch(batch); err != nil {
					panic(err)
				}
			}
		}(wr)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				live.SealColdPrefixes()
			}
		}
	}()
	type sample struct{ t1, t2, got float64 }
	samples := make([][]sample, 3)
	for rd := range samples {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(rd)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				t1 := horizon - 40 + math.Floor(rng.Float64()*(steps+60))
				t2 := t1 + math.Floor(rng.Float64()*80)
				samples[rd] = append(samples[rd], sample{t1, t2, core.StaticCount(live, region, t1, t2)})
				sampled.Add(1)
			}
		}(rd)
	}
	writeWG.Wait()
	close(stop)
	wg.Wait()

	n, rose := 0, 0
	for _, ss := range samples {
		for _, s := range ss {
			lo := core.StaticCount(before, region, s.t1, s.t2)
			hi := core.StaticCount(live, region, s.t1, s.t2)
			if s.got < lo || s.got > hi {
				t.Fatalf("window (%v, %v]: answered %v during ingest, outside [%v before, %v after]", s.t1, s.t2, s.got, lo, hi)
			}
			if hi > lo {
				rose++
			}
			n++
		}
	}
	if n == 0 || rose == 0 {
		t.Fatalf("vacuous: %d answers sampled, %d over windows the writers moved", n, rose)
	}
	if want := core.StaticCountReference(live, region, horizon, horizon+steps); core.StaticCount(live, region, horizon, horizon+steps) != want {
		t.Fatalf("final store: kernel and reference disagree (reference %v)", want)
	}
}
