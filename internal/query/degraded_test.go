package query

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sampled"
)

func compilePlan(t *testing.T, fx *fixture, spec faults.Spec) *faults.Plan {
	t.Helper()
	d := fx.w.Dual.G
	plan, err := faults.Compile(spec, d.NumNodes(), d.NumEdges(), fx.w.Dual.OuterNode)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDegradedIntervalContainsFaultFree is the core soundness property
// of degraded answering: under a seeded 10% crash-stop plan, transient,
// static, and snapshot queries must return non-error answers whose
// widened [Lower, Upper] interval contains the fault-free count.
func TestDegradedIntervalContainsFaultFree(t *testing.T) {
	fx := newFixture(t, 51)
	clean := fx.sampledEngine(t, 60, 52)
	degraded := fx.sampledEngine(t, 60, 52)
	plan := compilePlan(t, fx, faults.Spec{Seed: 53, SensorCrash: 0.10})
	degraded.SetFaultPlan(plan)
	if plan.DeadNodesAt(0) == 0 {
		t.Fatal("plan crashed no sensors; the test would be vacuous")
	}

	rng := rand.New(rand.NewSource(54))
	deadSeen, unobservedSeen, answered := 0, 0, 0
	for trial := 0; trial < 30; trial++ {
		rect := centerRect(fx.w, 0.3+rng.Float64()*0.5)
		t1 := 2000 + rng.Float64()*(fx.wl.Horizon-6000)
		t2 := t1 + 500 + rng.Float64()*2000
		for _, kind := range []Kind{Snapshot, Static, Transient} {
			for _, b := range []sampled.Bound{sampled.Lower, sampled.Upper} {
				req := Request{Rect: rect, T1: t1, T2: t2, Kind: kind, Bound: b}
				want, err := clean.Query(req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := degraded.Query(req)
				if err != nil {
					t.Fatalf("%v/%v degraded query errored: %v", kind, b, err)
				}
				if got.Missed != want.Missed {
					t.Fatalf("%v/%v: miss state changed under faults", kind, b)
				}
				if got.Missed {
					continue
				}
				answered++
				deg := got.Degradation
				if deg == nil {
					t.Fatal("no Degradation on a fault-plan engine")
				}
				if deg.Lower > want.Count || want.Count > deg.Upper {
					t.Fatalf("%v/%v: fault-free count %v outside degraded interval [%v, %v]",
						kind, b, want.Count, deg.Lower, deg.Upper)
				}
				if deg.Lower > got.Count || got.Count > deg.Upper {
					t.Fatalf("degraded count %v outside its own interval [%v, %v]",
						got.Count, deg.Lower, deg.Upper)
				}
				deadSeen += deg.DeadPerimeterSensors
				unobservedSeen += deg.UnobservedCuts
			}
		}
	}
	if answered == 0 {
		t.Fatal("every query missed")
	}
	if deadSeen == 0 {
		t.Error("10% crash plan never touched a perimeter sensor; widen path unexercised")
	}
	if unobservedSeen == 0 {
		t.Log("note: no cut road lost both flanking sensors in this run")
	}
}

// TestDegradedDeterministic: identical plans and query sequences must
// reproduce identical degraded responses, metrics included.
func TestDegradedDeterministic(t *testing.T) {
	fx := newFixture(t, 61)
	spec := faults.Spec{Seed: 62, SensorCrash: 0.15, LinkDead: 0.05, DropProb: 0.2, MaxRetries: 3}
	mk := func() *Engine {
		e := fx.sampledEngine(t, 50, 63)
		e.SetFaultPlan(compilePlan(t, fx, spec))
		return e
	}
	a, b := mk(), mk()
	rng := rand.New(rand.NewSource(64))
	sawDrops := false
	for trial := 0; trial < 20; trial++ {
		req := Request{
			Rect: centerRect(fx.w, 0.3+rng.Float64()*0.4),
			T1:   1000 + rng.Float64()*10000, Kind: Transient, Bound: sampled.Upper,
		}
		req.T2 = req.T1 + 2000
		ra, err := a.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Count != rb.Count || ra.Net != rb.Net {
			t.Fatalf("trial %d: responses diverge: %+v vs %+v", trial, ra.Net, rb.Net)
		}
		if *ra.Degradation != *rb.Degradation {
			t.Fatalf("trial %d: degradation diverges: %+v vs %+v", trial, ra.Degradation, rb.Degradation)
		}
		if ra.Net.Drops > 0 {
			sawDrops = true
		}
	}
	if !sawDrops {
		t.Error("DropProb 0.2 produced no drops over 20 queries")
	}
}

// TestDegradedFloodEngine: the unsampled (flooding) engine also answers
// under faults, reporting unreachable members as failed instead of
// silently counting them as dispatcher-accessed.
func TestDegradedFloodEngine(t *testing.T) {
	fx := newFixture(t, 71)
	clean := NewEngine(fx.w, fx.st)
	degraded := NewEngine(fx.w, fx.st)
	degraded.SetFaultPlan(compilePlan(t, fx, faults.Spec{Seed: 72, SensorCrash: 0.10}))
	req := Request{Rect: centerRect(fx.w, 0.6), T1: fx.wl.Horizon / 3, T2: fx.wl.Horizon / 2, Kind: Transient}
	want, err := clean.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := degraded.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	deg := got.Degradation
	if deg == nil {
		t.Fatal("no Degradation on flood engine")
	}
	if deg.Lower > want.Count || want.Count > deg.Upper {
		t.Fatalf("fault-free %v outside [%v, %v]", want.Count, deg.Lower, deg.Upper)
	}
	if got.Net.FailedNodes == 0 {
		t.Error("10% crash plan failed no flood members")
	}
	if got.Net.NodesAccessed >= want.Net.NodesAccessed {
		t.Errorf("degraded flood accessed %d nodes, clean %d — dead sensors should shrink the wave",
			got.Net.NodesAccessed, want.Net.NodesAccessed)
	}
}

// TestDegradedPerimeterRepair drives the reroute path directly: kill the
// sampled links' relay sensors along part of the perimeter so legs fail
// on G̃ and must be repaired over the full surviving graph.
func TestDegradedPerimeterRepair(t *testing.T) {
	fx := newFixture(t, 81)
	rng := rand.New(rand.NewSource(82))
	reroutes, failures := 0, 0
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		e := fx.sampledEngine(t, 40, 83)
		e.SetFaultPlan(compilePlan(t, fx, faults.Spec{Seed: seed, SensorCrash: 0.25, LinkDead: 0.10}))
		for trial := 0; trial < 10; trial++ {
			req := Request{Rect: centerRect(fx.w, 0.35+rng.Float64()*0.4),
				T1: 5000, T2: 9000, Kind: Transient, Bound: sampled.Upper}
			resp, err := e.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Missed {
				continue
			}
			reroutes += resp.Degradation.ReroutedLegs
			failures += resp.Degradation.FailedNodes
		}
	}
	if reroutes == 0 && failures == 0 {
		t.Error("heavy faults never rerouted nor failed a collection leg")
	}
}

// TestDegradedWindowInsideInterval: a scheduled outage window that
// overlaps (T1, T2] but not T1 must still degrade interval queries —
// fault state is evaluated over the whole query horizon, not sampled at
// T1 only (the sensors' data during the outage is unobservable even
// though they are alive when the query starts).
func TestDegradedWindowInsideInterval(t *testing.T) {
	fx := newFixture(t, 101)
	e := fx.sampledEngine(t, 60, 102)
	clean := fx.sampledEngine(t, 60, 102)
	// Every sensor is down during [6000, 7000) and alive otherwise.
	plan := compilePlan(t, fx, faults.Spec{Seed: 103,
		Windows: []faults.Window{{Start: 6000, End: 7000, Frac: 1}}})
	e.SetFaultPlan(plan)

	rect := centerRect(fx.w, 0.6)
	for _, kind := range []Kind{Static, Transient} {
		req := Request{Rect: rect, T1: 4000, T2: 8000, Kind: kind, Bound: sampled.Upper}
		want, err := clean.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Missed {
			t.Fatalf("%v query missed", kind)
		}
		deg := got.Degradation
		if deg == nil {
			t.Fatalf("%v: no Degradation under a fault plan", kind)
		}
		if deg.DeadPerimeterSensors == 0 {
			t.Errorf("%v: outage window inside (T1, T2] killed no perimeter sensors", kind)
		}
		if deg.UnobservedCuts == 0 {
			t.Errorf("%v: full outage inside the interval left every cut observed", kind)
		}
		if deg.Lower > want.Count || want.Count > deg.Upper {
			t.Errorf("%v: fault-free count %v outside degraded interval [%v, %v]",
				kind, want.Count, deg.Lower, deg.Upper)
		}
	}

	// A Snapshot at T1 (before the window opens) is untouched: the
	// horizon [T1, T1] does not meet the window.
	req := Request{Rect: rect, T1: 4000, Kind: Snapshot, Bound: sampled.Upper}
	want, err := clean.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	deg := got.Degradation
	if deg == nil {
		t.Fatal("snapshot: no Degradation under a fault plan")
	}
	if deg.DeadPerimeterSensors != 0 || deg.UnobservedCuts != 0 {
		t.Errorf("snapshot before the window degraded: %+v", deg)
	}
	if got.Count != want.Count || deg.Lower != deg.Upper {
		t.Errorf("snapshot before the window: count %v (interval [%v, %v]), want exact %v",
			got.Count, deg.Lower, deg.Upper, want.Count)
	}
}

// TestDegradedObservedPerimeterStillMonitored: the observed sub-perimeter
// the degraded count integrates must stay a subset of the real perimeter
// (no cut road invented by the partition).
func TestDegradedObservedPerimeterStillMonitored(t *testing.T) {
	fx := newFixture(t, 91)
	e := fx.sampledEngine(t, 50, 92)
	plan := compilePlan(t, fx, faults.Spec{Seed: 93, SensorCrash: 0.2})
	e.SetFaultPlan(plan)
	req := Request{Rect: centerRect(fx.w, 0.6), T1: 8000, Kind: Snapshot, Bound: sampled.Upper}
	resp, err := e.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Missed {
		t.Skip("region missed")
	}
	full := make(map[core.CutRoad]bool)
	for _, cr := range resp.Region.CutRoads() {
		full[cr] = true
	}
	if resp.EdgesAccessed+resp.Degradation.UnobservedCuts != len(full) {
		t.Errorf("observed %d + unobserved %d != perimeter %d",
			resp.EdgesAccessed, resp.Degradation.UnobservedCuts, len(full))
	}
}
