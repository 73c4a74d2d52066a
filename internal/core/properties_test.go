package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/planar"
)

// TestTrackerSemantics exercises the raw tracking form: counts are
// prefix sums of the recorded events per direction.
func TestTrackerSemantics(t *testing.T) {
	var tr core.Tracker
	times := []float64{1, 2, 2, 5, 9}
	for i, ts := range times {
		tr.Record(i%2 == 0, ts)
	}
	if tr.Len() != len(times) {
		t.Fatalf("Len = %d", tr.Len())
	}
	// forward got indices 0,2,4 → times 1,2,9; reverse 2,5.
	if got := tr.Count(true, 2); got != 2 {
		t.Errorf("fwd count ≤2 = %d, want 2", got)
	}
	if got := tr.Count(true, 0.5); got != 0 {
		t.Errorf("fwd count ≤0.5 = %d", got)
	}
	if got := tr.Count(false, 5); got != 2 {
		t.Errorf("rev count ≤5 = %d, want 2", got)
	}
	if got := len(tr.Events(true)); got != 3 {
		t.Errorf("fwd events = %d", got)
	}
}

// TestTrackerCountMonotone is a quick property: Count is monotone in t
// for random event sequences.
func TestTrackerCountMonotone(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr core.Tracker
		ts := 0.0
		for i := 0; i < 100; i++ {
			ts += rng.Float64() * 5
			tr.Record(rng.Intn(2) == 0, ts)
		}
		prevF, prevR := -1, -1
		for q := 0.0; q < ts+10; q += 3 {
			f, r := tr.Count(true, q), tr.Count(false, q)
			if f < prevF || r < prevR {
				return false
			}
			prevF, prevR = f, r
		}
		return tr.Count(true, ts+1)+tr.Count(false, ts+1) == tr.Len()
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

// TestComplementInvariant: a region and its complement partition the
// world, so their occupancy counts sum to the world occupancy at every
// time.
func TestComplementInvariant(t *testing.T) {
	fx := smallFixture(t, 301)
	rng := rand.New(rand.NewSource(302))
	all := make([]planar.NodeID, fx.w.Star.NumNodes())
	for i := range all {
		all[i] = planar.NodeID(i)
	}
	world, err := core.NewRegion(fx.w, all)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		r := randomRegion(t, fx.w, rng)
		var comp []planar.NodeID
		for _, j := range all {
			if !r.Contains(j) {
				comp = append(comp, j)
			}
		}
		rc, err := core.NewRegion(fx.w, comp)
		if err != nil {
			t.Fatal(err)
		}
		ts := rng.Float64() * fx.wl.Horizon
		a := core.SnapshotCount(fx.st, r, ts)
		b := core.SnapshotCount(fx.st, rc, ts)
		w := core.SnapshotCount(fx.st, world, ts)
		if a+b != w {
			t.Fatalf("complement broken: %v + %v != %v", a, b, w)
		}
	}
}

// TestTransientTelescoping: net flows over adjacent windows sum to the
// net flow of the union window.
func TestTransientTelescoping(t *testing.T) {
	fx := smallFixture(t, 303)
	rng := rand.New(rand.NewSource(304))
	for trial := 0; trial < 20; trial++ {
		r := randomRegion(t, fx.w, rng)
		t0 := rng.Float64() * fx.wl.Horizon / 3
		t1 := t0 + rng.Float64()*fx.wl.Horizon/3
		t2 := t1 + rng.Float64()*fx.wl.Horizon/3
		a := core.TransientCount(fx.st, r, t0, t1)
		b := core.TransientCount(fx.st, r, t1, t2)
		ab := core.TransientCount(fx.st, r, t0, t2)
		if a+b != ab {
			t.Fatalf("telescoping broken: %v + %v != %v", a, b, ab)
		}
	}
}

// TestWorldOccupancyBounds: the whole-world count equals enters − leaves
// and never exceeds the object population.
func TestWorldOccupancyBounds(t *testing.T) {
	fx := smallFixture(t, 305)
	all := make([]planar.NodeID, fx.w.Star.NumNodes())
	for i := range all {
		all[i] = planar.NodeID(i)
	}
	world, err := core.NewRegion(fx.w, all)
	if err != nil {
		t.Fatal(err)
	}
	st := fx.wl.Stats()
	got := core.SnapshotCount(fx.st, world, fx.wl.Horizon+1)
	if got != float64(st.Enters-st.Leaves) {
		t.Errorf("final world occupancy %v != enters−leaves %d", got, st.Enters-st.Leaves)
	}
	for ts := 0.0; ts < fx.wl.Horizon; ts += fx.wl.Horizon / 17 {
		v := core.SnapshotCount(fx.st, world, ts)
		if v < 0 || v > float64(fx.wl.Objects) {
			t.Fatalf("world occupancy %v out of [0, %d] at %v", v, fx.wl.Objects, ts)
		}
	}
}

// TestSnapshotBeforeFirstEventIsZero: no region holds objects before the
// workload starts.
func TestSnapshotBeforeFirstEventIsZero(t *testing.T) {
	fx := smallFixture(t, 307)
	rng := rand.New(rand.NewSource(308))
	first := fx.wl.Events[0].T
	for trial := 0; trial < 10; trial++ {
		r := randomRegion(t, fx.w, rng)
		if got := core.SnapshotCount(fx.st, r, first-1); got != 0 {
			t.Fatalf("pre-workload count = %v", got)
		}
	}
}

// TestCutRoadCacheEquivalence: a compiled region handed the scan's
// perimeter counts what the scanned region counts.
func TestCutRoadCacheEquivalence(t *testing.T) {
	fx := smallFixture(t, 309)
	rng := rand.New(rand.NewSource(310))
	for trial := 0; trial < 10; trial++ {
		r := randomRegion(t, fx.w, rng)
		ts := rng.Float64() * fx.wl.Horizon
		want := core.SnapshotCount(fx.st, r, ts)
		r2 := core.NewCompiledRegion(fx.w, r.Junctions(), r.Perimeter(), len(r.CutRoads()), r.PerimeterSensors())
		if got := core.SnapshotCount(fx.st, r2, ts); got != want {
			t.Fatalf("cached cut roads changed count: %v vs %v", got, want)
		}
	}
}
