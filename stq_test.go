package stq

import (
	"reflect"
	"testing"
)

func newTestSystem(t *testing.T) (*System, *Workload) {
	t.Helper()
	sys, err := NewGridCitySystem(GridOpts{
		NX: 10, NY: 10, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.15}, 7)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := sys.GenerateWorkload(MobilityOpts{
		Objects: 80, Horizon: 20000, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 300, LeaveProb: 0.5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(wl); err != nil {
		t.Fatal(err)
	}
	return sys, wl
}

func centered(sys *System, frac float64) Rect {
	b := sys.Bounds()
	c := b.Center()
	w, h := b.Width()*frac, b.Height()*frac
	return Rect{Min: Point{X: c.X - w/2, Y: c.Y - h/2}, Max: Point{X: c.X + w/2, Y: c.Y + h/2}}
}

func TestSystemLifecycle(t *testing.T) {
	sys, wl := newTestSystem(t)
	if sys.NumSensors() == 0 {
		t.Fatal("no sensors")
	}
	if sys.NumCommunicationSensors() != 0 {
		t.Error("placement before PlaceSensors")
	}
	if len(sys.Gateways()) == 0 {
		t.Error("no gateways")
	}
	resp, err := sys.Query(Query{Rect: centered(sys, 0.5), T1: wl.Horizon / 2, Kind: Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Missed {
		t.Error("unsampled query missed")
	}
	if resp.RegionFaces == 0 || resp.NodesAccessed == 0 {
		t.Errorf("degenerate response %+v", resp)
	}
}

func TestSystemAllKinds(t *testing.T) {
	sys, wl := newTestSystem(t)
	rect := centered(sys, 0.6)
	t1, t2 := wl.Horizon*0.3, wl.Horizon*0.7
	snap, err := sys.Query(Query{Rect: rect, T1: t1, Kind: Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	static, err := sys.Query(Query{Rect: rect, T1: t1, T2: t2, Kind: Static})
	if err != nil {
		t.Fatal(err)
	}
	if static.Count > snap.Count {
		t.Errorf("static %v above snapshot %v", static.Count, snap.Count)
	}
	if _, err := sys.Query(Query{Rect: rect, T1: t1, T2: t2, Kind: Transient}); err != nil {
		t.Fatal(err)
	}
}

func TestSystemPlacementReducesAccess(t *testing.T) {
	sys, wl := newTestSystem(t)
	rect := centered(sys, 0.7)
	full, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.PlaceSensors(PlacementQuadTree, 25, 9); err != nil {
		t.Fatal(err)
	}
	if sys.NumCommunicationSensors() == 0 {
		t.Fatal("no communication sensors after placement")
	}
	smp, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot, Bound: Lower})
	if err != nil {
		t.Fatal(err)
	}
	if !smp.Missed {
		if smp.Count > full.Count {
			t.Errorf("lower-bound %v above exact %v", smp.Count, full.Count)
		}
		if smp.NodesAccessed >= full.NodesAccessed {
			t.Errorf("sampled accessed %d ≥ unsampled %d", smp.NodesAccessed, full.NodesAccessed)
		}
	}
	up, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot, Bound: Upper})
	if err != nil {
		t.Fatal(err)
	}
	if up.Count < full.Count {
		t.Errorf("upper-bound %v below exact %v", up.Count, full.Count)
	}
	sys.ClearPlacement()
	if sys.NumCommunicationSensors() != 0 {
		t.Error("ClearPlacement did not revert")
	}
}

func TestSystemQueryAdaptivePlacement(t *testing.T) {
	sys, wl := newTestSystem(t)
	hot := centered(sys, 0.4)
	if err := sys.PlaceSensorsForQueries([]Rect{hot, centered(sys, 0.3)}, 40); err != nil {
		t.Fatal(err)
	}
	resp, err := sys.Query(Query{Rect: hot, T1: wl.Horizon / 2, Kind: Snapshot, Bound: Lower})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Missed {
		t.Error("trained region missed")
	}
}

func TestSystemManualRecording(t *testing.T) {
	sys, err := NewGridCitySystem(GridOpts{NX: 5, NY: 5, Spacing: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	gw := sys.Gateways()[0]
	if err := sys.RecordEnter(gw, 1); err != nil {
		t.Fatal(err)
	}
	w := sys.World()
	var road EdgeID = -1
	var from NodeID
	for _, e := range w.Star.Incident(gw) {
		road = e
		from = gw
		break
	}
	if road < 0 {
		t.Fatal("gateway has no incident road")
	}
	if err := sys.RecordMove(road, from, 2); err != nil {
		t.Fatal(err)
	}
	resp, err := sys.Query(Query{Rect: sys.Bounds().Expand(1), T1: 3, Kind: Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 {
		t.Errorf("count = %v, want 1", resp.Count)
	}
	if err := sys.RecordMove(road, from, 1); err == nil {
		t.Error("time regression on one direction accepted")
	}
}

// TestBatchOfOneEquivalence: RecordBatch is the one ingest path, and
// RecordMove/RecordEnter/RecordLeave are batches of one through it. On
// every backend — single store, 4-partition set, durable at 1 and 4
// partitions — a stream fed event by event leaves exactly the store
// state (the union of the members' snapshots) the same stream leaves
// when fed in batches of 1, 7 and 8192 (bigger than the stream: one
// batch), and a durable system recovers both to the same events and
// answers.
func TestBatchOfOneEquivalence(t *testing.T) {
	w := durableTestWorld(t)
	var stream []Event
	for _, b := range durableBatches(w, 40, 25, 0, 21) {
		stream = append(stream, b...)
	}
	horizon := stream[len(stream)-1].T
	backends := []struct {
		name string
		open func(dir string) (*System, error)
	}{
		{"single", func(string) (*System, error) { return NewSystem(w), nil }},
		{"partitioned", func(string) (*System, error) { return NewPartitionedSystem(w, 4) }},
		{"durable", func(dir string) (*System, error) { return OpenDurable(w, Durability{Dir: dir, Sync: SyncNever}) }},
		{"durable/4", func(dir string) (*System, error) {
			return OpenDurable(w, Durability{Dir: dir, Sync: SyncNever, Partitions: 4})
		}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			open := func(dir string) *System {
				sys, err := be.open(dir)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			refDir := t.TempDir()
			ref := open(refDir)
			for i, ev := range stream {
				var err error
				switch ev.Kind {
				case EventMove:
					err = ref.RecordMove(ev.Road, ev.From, ev.T)
				case EventEnter:
					err = ref.RecordEnter(ev.Gateway, ev.T)
				case EventLeave:
					err = ref.RecordLeave(ev.Gateway, ev.T)
				}
				if err != nil {
					t.Fatalf("event %d: %v", i, err)
				}
			}
			for _, chunk := range []int{1, 7, 8192} {
				dir := t.TempDir()
				sys := open(dir)
				for lo := 0; lo < len(stream); lo += chunk {
					if err := sys.RecordBatch(stream[lo:min(lo+chunk, len(stream))]); err != nil {
						t.Fatalf("chunk %d at %d: %v", chunk, lo, err)
					}
				}
				if got, want := unionSnapshot(t, sys), unionSnapshot(t, ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("chunk %d: the store differs from the per-event system's (%d vs %d events)", chunk, got.Events, want.Events)
				}
				assertSameAnswers(t, ref, sys, horizon)
				if err := sys.Close(); err != nil {
					t.Fatal(err)
				}
				if !sys.Durable() {
					continue
				}
				re := open(dir)
				if got, want := re.NumEvents(), len(stream); got != want {
					t.Fatalf("chunk %d: recovered %d events, want %d", chunk, got, want)
				}
				assertSameAnswers(t, ref, re, horizon)
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}
			if ref.Durable() {
				re := open(refDir)
				defer re.Close()
				if got, want := re.NumEvents(), len(stream); got != want {
					t.Fatalf("per-event system recovered %d events, want %d", got, want)
				}
				assertSameAnswers(t, ref, re, horizon)
			}
		})
	}
}

func TestOtherCityKinds(t *testing.T) {
	if _, err := NewRadialCitySystem(RadialOpts{Rings: 4, Spokes: 8, RingGap: 40, SkipFrac: 0.1}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRandomCitySystem(RandomOpts{N: 60, Size: 500, RemoveFrac: 0.2}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestSystemPrivacy(t *testing.T) {
	sys, wl := newTestSystem(t)
	rect := centered(sys, 0.6)
	exact, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnablePrivacy(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnablePrivacy(2.0, 3.0, 1); err == nil {
		t.Error("per-query epsilon above total accepted")
	}
	if err := sys.EnablePrivacy(2.0, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	var devSum float64
	for i := 0; i < 4; i++ {
		resp, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot})
		if err != nil {
			t.Fatal(err)
		}
		d := resp.Count - exact.Count
		if d < 0 {
			d = -d
		}
		devSum += d
	}
	if devSum == 0 {
		t.Error("privacy enabled but counts unperturbed across 4 queries")
	}
	if got := sys.PrivacyBudgetRemaining(); got > 1e-9 {
		t.Errorf("budget remaining = %v, want 0", got)
	}
	if _, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot}); err == nil {
		t.Error("query beyond privacy budget accepted")
	}
	// Disable and verify exactness returns.
	if err := sys.EnablePrivacy(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	resp, err := sys.Query(Query{Rect: rect, T1: wl.Horizon / 2, Kind: Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != exact.Count {
		t.Error("disabled privacy still perturbs")
	}
}

func TestPlacementString(t *testing.T) {
	names := map[Placement]string{
		PlacementUniform: "uniform", PlacementSystematic: "systematic",
		PlacementStratified: "stratified", PlacementKDTree: "kdtree",
		PlacementQuadTree: "quadtree",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
	sys, _ := newTestSystem(t)
	if err := sys.PlaceSensors(Placement(99), 10, 1); err == nil {
		t.Error("unknown placement accepted")
	}
}

// TestSystemFaultTolerance is the acceptance scenario of the fault-
// injection layer: a seeded 10% crash-stop plan on a 16×16 grid must
// leave transient and static queries answering without error, with a
// widened [Lower, Upper] interval containing the fault-free count, a
// populated Degradation report, and metrics that reproduce exactly
// under the same seed.
func TestSystemFaultTolerance(t *testing.T) {
	sys, err := NewGridCitySystem(GridOpts{
		NX: 16, NY: 16, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.1}, 42)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := sys.GenerateWorkload(MobilityOpts{
		Objects: 150, Horizon: 20000, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 300, LeaveProb: 0.5}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(wl); err != nil {
		t.Fatal(err)
	}
	if err := sys.PlaceSensors(PlacementQuadTree, 64, 42); err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{Rect: centered(sys, 0.5), T1: 5000, T2: 9000, Kind: Transient, Bound: Upper},
		{Rect: centered(sys, 0.7), T1: 5000, T2: 9000, Kind: Transient, Bound: Lower},
		{Rect: centered(sys, 0.5), T1: 5000, T2: 9000, Kind: Static, Bound: Upper},
		{Rect: centered(sys, 0.7), T1: 5000, T2: 9000, Kind: Static, Bound: Lower},
	}
	baseline := make([]*Response, len(queries))
	for i, q := range queries {
		if baseline[i], err = sys.Query(q); err != nil {
			t.Fatal(err)
		}
		if baseline[i].Degradation != nil {
			t.Fatal("Degradation reported without a fault plan")
		}
	}

	spec := FaultSpec{Seed: 99, SensorCrash: 0.10, DropProb: 0.1, MaxRetries: 3}
	run := func() []Response {
		if err := sys.ApplyFaults(spec); err != nil {
			t.Fatal(err)
		}
		out := make([]Response, len(queries))
		for i, q := range queries {
			resp, err := sys.Query(q)
			if err != nil {
				t.Fatalf("degraded query %d errored: %v", i, err)
			}
			out[i] = *resp
		}
		return out
	}
	first := run()
	if sys.NumFailedSensors(5000) == 0 {
		t.Fatal("10% crash plan killed no sensors")
	}
	deadSeen, dropsSeen := 0, 0
	for i, resp := range first {
		if resp.Missed != baseline[i].Missed {
			t.Fatalf("query %d: miss state changed under faults", i)
		}
		if resp.Missed {
			continue
		}
		deg := resp.Degradation
		if deg == nil {
			t.Fatalf("query %d: no Degradation under a fault plan", i)
		}
		if deg.Lower > baseline[i].Count || baseline[i].Count > deg.Upper {
			t.Errorf("query %d: fault-free count %v outside degraded interval [%v, %v]",
				i, baseline[i].Count, deg.Lower, deg.Upper)
		}
		deadSeen += deg.DeadPerimeterSensors
		dropsSeen += deg.Drops
	}
	if deadSeen == 0 {
		t.Error("no dead perimeter sensors reported across the degraded queries")
	}
	if dropsSeen == 0 {
		t.Error("DropProb 0.1 reported no drops")
	}
	// Identical seeds reproduce identical metrics.
	second := run()
	for i := range first {
		a, b := first[i], second[i]
		if a.Count != b.Count || a.NodesAccessed != b.NodesAccessed || a.Messages != b.Messages {
			t.Errorf("query %d: metrics differ across identical fault runs", i)
		}
		if *a.Degradation != *b.Degradation {
			t.Errorf("query %d: degradation differs across identical fault runs:\n%+v\n%+v",
				i, a.Degradation, b.Degradation)
		}
	}
	// Clearing faults restores exact answering.
	sys.ClearFaults()
	for i, q := range queries {
		resp, err := sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Degradation != nil {
			t.Errorf("query %d: Degradation survived ClearFaults", i)
		}
		if resp.Count != baseline[i].Count {
			t.Errorf("query %d: count %v != baseline %v after ClearFaults", i, resp.Count, baseline[i].Count)
		}
	}
}

// TestPrivateDegradedRelease: with privacy AND a fault plan active, the
// released Degradation interval must be centered on the noised count —
// releasing the raw count±W bounds beside the noisy count would reveal
// the exact count as (Lower+Upper)/2, defeating the noise. Geometric
// noise is 0 with probability 0.46 at ε = 1, so every one of several
// releases is checked and at least one of them must have moved.
func TestPrivateDegradedRelease(t *testing.T) {
	sys, _ := newTestSystem(t)
	if err := sys.PlaceSensors(PlacementQuadTree, 48, 9); err != nil {
		t.Fatal(err)
	}
	spec := FaultSpec{Seed: 21, SensorCrash: 0.15}
	q := Query{Rect: centered(sys, 0.6), T1: 5000, T2: 9000, Kind: Transient, Bound: Upper}

	if err := sys.ApplyFaults(spec); err != nil {
		t.Fatal(err)
	}
	raw, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Missed || raw.Degradation == nil {
		t.Fatal("fixture query produced no degraded answer")
	}

	// Re-apply the same spec to reset the deterministic fault state,
	// then query privately: same degraded count, now noised.
	if err := sys.ApplyFaults(spec); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnablePrivacy(100, 1.0, 31); err != nil {
		t.Fatal(err)
	}
	rawMid := (raw.Degradation.Lower + raw.Degradation.Upper) / 2
	rawWidth := raw.Degradation.Upper - raw.Degradation.Lower
	moved := 0
	for i := 0; i < 10; i++ {
		priv, err := sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		deg := priv.Degradation
		if deg == nil {
			t.Fatalf("release %d: no Degradation on the private degraded response", i)
		}
		mid := (deg.Lower + deg.Upper) / 2
		if diff := mid - priv.Count; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("release %d: private interval midpoint %v != released count %v — leaks the raw count", i, mid, priv.Count)
		}
		if diff := deg.Upper - deg.Lower - rawWidth; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("release %d: recentering changed the interval width: %v != %v", i, deg.Upper-deg.Lower, rawWidth)
		}
		if priv.Count != raw.Count {
			moved++
			// The raw midpoint must no longer be recoverable from the bounds.
			if mid == rawMid {
				t.Errorf("release %d: private bounds still centered on the un-noised count", i)
			}
		}
	}
	if moved == 0 {
		t.Fatal("noise left every release unchanged; recentering untested")
	}
}

// TestApplyFaultsValidation: invalid specs are rejected up front.
func TestApplyFaultsValidation(t *testing.T) {
	sys, _ := newTestSystem(t)
	if err := sys.ApplyFaults(FaultSpec{SensorCrash: 2}); err == nil {
		t.Error("crash rate 2 accepted")
	}
	if sys.NumFailedSensors(0) != 0 {
		t.Error("failed sensors without a plan")
	}
}
