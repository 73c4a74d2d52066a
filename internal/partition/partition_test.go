package partition_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

func testWorld(t *testing.T, seed int64) *roadnet.World {
	t.Helper()
	w, err := roadnet.GridCity(roadnet.GridOpts{
		NX: 10, NY: 10, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.1},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// walkEvents generates a deterministic, per-object time-ordered event
// stream: objects enter at a gateway, random-walk over incident roads,
// and sometimes leave. The merged stream is globally time ordered.
func walkEvents(w *roadnet.World, n int, seed int64) []core.Event {
	rng := rand.New(rand.NewSource(seed))
	isGateway := make(map[planar.NodeID]bool, len(w.Gateways))
	for _, g := range w.Gateways {
		isGateway[g] = true
	}
	events := make([]core.Event, 0, n)
	cur := w.Gateways[0]
	inside := false
	t := 0.0
	for len(events) < n {
		t += 1 + rng.Float64()
		if !inside {
			cur = w.Gateways[rng.Intn(len(w.Gateways))]
			events = append(events, core.EnterEvent(cur, t))
			inside = true
			continue
		}
		if rng.Float64() < 0.1 && isGateway[cur] {
			events = append(events, core.LeaveEvent(cur, t))
			inside = false
			continue
		}
		inc := w.Star.Incident(cur)
		e := inc[rng.Intn(len(inc))]
		events = append(events, core.MoveEvent(e, cur, t))
		ed := w.Star.Edge(e)
		if cur == ed.U {
			cur = ed.V
		} else {
			cur = ed.U
		}
	}
	return events
}

func TestLayoutDeterministicAndCovering(t *testing.T) {
	w := testWorld(t, 3)
	for _, cells := range []int{1, 2, 3, 4, 8} {
		a, err := partition.Build(w, cells)
		if err != nil {
			t.Fatal(err)
		}
		b, err := partition.Build(w, cells)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cells=%d: Build is not deterministic", cells)
		}
		total := 0
		for c, n := range a.CellJunctions {
			if n == 0 {
				t.Errorf("cells=%d: cell %d owns no junctions", cells, c)
			}
			total += n
		}
		if total != w.Star.NumNodes() {
			t.Fatalf("cells=%d: %d junctions assigned, world has %d", cells, total, w.Star.NumNodes())
		}
		for j, c := range a.CellOfJunction {
			if c < 0 || c >= cells {
				t.Fatalf("junction %d assigned to cell %d of %d", j, c, cells)
			}
		}
		for e, c := range a.CellOfRoad {
			ed := w.Star.Edge(planar.EdgeID(e))
			if c != a.CellOfJunction[ed.U] {
				t.Fatalf("road %d owned by cell %d, its U endpoint by %d", e, c, a.CellOfJunction[ed.U])
			}
		}
		if cells > 1 && len(a.BoundaryRoads) == 0 {
			t.Errorf("cells=%d: no boundary roads on a connected grid", cells)
		}
	}
	if _, err := partition.Build(w, 0); err == nil {
		t.Error("0 cells accepted")
	}
	if _, err := partition.Build(w, w.Star.NumNodes()+1); err == nil {
		t.Error("more cells than junctions accepted")
	}
}

// TestSetBitIdenticalCounters: every core query primitive answered by
// the partitioned set must equal the single-store answer bit for bit,
// for every query kind, at every partition count.
func TestSetBitIdenticalCounters(t *testing.T) {
	w := testWorld(t, 5)
	events := walkEvents(w, 4000, 11)
	single := core.NewStore(w)
	if err := single.RecordBatch(events); err != nil {
		t.Fatal(err)
	}
	region, err := core.NewRegion(w, w.JunctionsIn(w.Bounds()))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.NewRegion(w, w.JunctionsIn(w.Bounds().Expand(-w.Bounds().Width()/4)))
	if err != nil {
		t.Fatal(err)
	}
	horizon := events[len(events)-1].T
	for _, cells := range []int{2, 4, 8} {
		lay, err := partition.Build(w, cells)
		if err != nil {
			t.Fatal(err)
		}
		set := partition.NewSet(w, lay)
		// Ingest in batches to exercise both the single- and the
		// multi-partition RecordBatch paths.
		for i := 0; i < len(events); i += 64 {
			end := i + 64
			if end > len(events) {
				end = len(events)
			}
			if err := set.RecordBatch(events[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := set.NumEvents(), single.NumEvents(); got != want {
			t.Fatalf("cells=%d: %d events in set, %d in single store", cells, got, want)
		}
		if got, want := set.Clock(), single.Clock(); got != want {
			t.Fatalf("cells=%d: composite clock %v != single %v", cells, got, want)
		}
		for _, r := range []*core.Region{region, inner} {
			for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
				ts := horizon * frac
				if got, want := core.SnapshotCount(set, r, ts), core.SnapshotCount(single, r, ts); got != want {
					t.Errorf("cells=%d t=%v: snapshot %v != %v", cells, ts, got, want)
				}
				if got, want := core.TransientCount(set, r, ts/2, ts), core.TransientCount(single, r, ts/2, ts); got != want {
					t.Errorf("cells=%d t=%v: transient %v != %v", cells, ts, got, want)
				}
				if got, want := core.StaticCount(set, r, ts/2, ts), core.StaticCount(single, r, ts/2, ts); got != want {
					t.Errorf("cells=%d t=%v: static %v != %v", cells, ts, got, want)
				}
			}
		}
		if got, want := set.Storage().TotalTimestamps, single.Storage().TotalTimestamps; got != want {
			t.Errorf("cells=%d: %d stored timestamps, single store has %d", cells, got, want)
		}
	}
}

// TestReferenceKernelsOverASet: the per-edge reference kernels are the
// specification of the three counting forms and run over any
// core.Counter, a sharded one included — every term then travels through
// the Set's per-road dispatch instead of its scatter-gather. Over a
// 3-cell set, on 200 seeded regions, they must equal the fused forms
// (and the single store's) bit for bit. This is the first hook for an
// oracle that shares no fused code with the engine.
func TestReferenceKernelsOverASet(t *testing.T) {
	w := testWorld(t, 5)
	events := walkEvents(w, 4000, 11)
	single := core.NewStore(w)
	if err := single.RecordBatch(events); err != nil {
		t.Fatal(err)
	}
	lay, err := partition.Build(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	set := partition.NewSet(w, lay)
	for i := 0; i < len(events); i += 64 {
		if err := set.RecordBatch(events[i:min(i+64, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
	horizon := events[len(events)-1].T
	rng := rand.New(rand.NewSource(17))
	b := w.Bounds()
	for trial := 0; trial < 200; trial++ {
		wf, hf := 0.1+rng.Float64()*0.8, 0.1+rng.Float64()*0.8
		x, y := b.Min.X+rng.Float64()*b.Width()*(1-wf), b.Min.Y+rng.Float64()*b.Height()*(1-hf)
		rect := geom.RectWH(x, y, b.Width()*wf, b.Height()*hf)
		// A fresh region per evaluation: no memoized perimeter is shared
		// between a reference and the form it specifies.
		region := func() *core.Region {
			r, err := core.NewRegion(w, w.JunctionsIn(rect))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		t1 := rng.Float64() * horizon
		t2 := t1 + rng.Float64()*(horizon-t1)
		samples := 2 + rng.Intn(20)
		if ref, fused, one := core.SnapshotCountReference(set, region(), t1), core.SnapshotCount(set, region(), t1), core.SnapshotCount(single, region(), t1); ref != fused || ref != one {
			t.Fatalf("trial %d: snapshot reference over the set %v, fused %v, single store %v", trial, ref, fused, one)
		}
		if ref, fused, one := core.TransientCountReference(set, region(), t1, t2), core.TransientCount(set, region(), t1, t2), core.TransientCount(single, region(), t1, t2); ref != fused || ref != one {
			t.Fatalf("trial %d: transient reference over the set %v, fused %v, single store %v", trial, ref, fused, one)
		}
		if ref, fused, one := core.StaticCountSampledReference(set, region(), t1, t2, samples), core.StaticCountSampled(set, region(), t1, t2, samples), core.StaticCountSampled(single, region(), t1, t2, samples); ref != fused || ref != one {
			t.Fatalf("trial %d: sampled static reference over the set %v, fused %v, single store %v", trial, ref, fused, one)
		}
	}
}

// TestSetStaticTieAcrossMembers is core's TestStaticTieRule with the two
// tied events owned by different members: one object leaves a region
// over a road of one cell at the tick another enters over a road of a
// second cell. Occupancy never leaves 1, so the static count is 1 —
// the members' step functions cancel at that instant when summed. No
// per-member answer could be merged into it: the leaving side alone
// dips to 0.
func TestSetStaticTieAcrossMembers(t *testing.T) {
	w := testWorld(t, 5)
	for _, cells := range []int{2, 4} {
		lay, err := partition.Build(w, cells)
		if err != nil {
			t.Fatal(err)
		}
		// A junction with two roads owned by different members.
		var j planar.NodeID
		var a, b planar.EdgeID
		found := false
		for n := 0; n < w.Star.NumNodes() && !found; n++ {
			inc := w.Star.Incident(planar.NodeID(n))
			for _, e := range inc[1:] {
				if lay.OwnerOfRoad(e) != lay.OwnerOfRoad(inc[0]) {
					j, a, b, found = planar.NodeID(n), inc[0], e, true
					break
				}
			}
		}
		if !found {
			t.Fatalf("cells=%d: no junction straddles two members", cells)
		}
		outside := func(road planar.EdgeID) planar.NodeID { return w.Star.Edge(road).Other(j) }
		set := partition.NewSet(w, lay)
		if err := set.RecordBatch([]core.Event{
			core.MoveEvent(a, outside(a), 10),
			core.MoveEvent(a, j, 20),
			core.MoveEvent(b, outside(b), 20),
		}); err != nil {
			t.Fatal(err)
		}
		for _, order := range [][2]planar.EdgeID{{a, b}, {b, a}} {
			r := core.NewCompiledRegion(w, []planar.NodeID{j}, []core.CutRoad{{Road: order[0], Inside: j}, {Road: order[1], Inside: j}}, 2, nil)
			if got := core.StaticCount(set, r, 15, 25); got != 1 {
				t.Errorf("cells=%d perimeter %v: static count %v, want 1", cells, order, got)
			}
		}
		base, steps := set.StaticSteps([]core.CutRoad{{Road: a, Inside: j}, {Road: b, Inside: j}}, 15, 25, nil)
		if base != 1 || len(steps) != 0 {
			t.Errorf("cells=%d: step function base %v steps %v, want 1 and none (the instant cancels)", cells, base, steps)
		}
	}
}

// TestSetMultiPartitionBatchAtomicity: a multi-partition batch whose
// events are valid for one partition but violate per-edge order in
// another must apply nothing anywhere.
func TestSetMultiPartitionBatchAtomicity(t *testing.T) {
	w := testWorld(t, 7)
	lay, err := partition.Build(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	set := partition.NewSet(w, lay)

	// One road per distinct partition.
	var roadA, roadB planar.EdgeID = -1, -1
	for e := 0; e < w.Star.NumEdges(); e++ {
		if roadA < 0 {
			roadA = planar.EdgeID(e)
			continue
		}
		if lay.OwnerOfRoad(planar.EdgeID(e)) != lay.OwnerOfRoad(roadA) {
			roadB = planar.EdgeID(e)
			break
		}
	}
	if roadB < 0 {
		t.Fatal("no two roads in distinct partitions")
	}
	fromA := w.Star.Edge(roadA).U
	fromB := w.Star.Edge(roadB).U

	// Partition A's sub-batch is valid; partition B's regresses on its
	// own edge direction. Nothing may apply.
	bad := []core.Event{
		core.MoveEvent(roadA, fromA, 10),
		core.MoveEvent(roadB, fromB, 20),
		core.MoveEvent(roadB, fromB, 5),
	}
	if err := set.RecordBatch(bad); err == nil {
		t.Fatal("per-edge regression in one partition accepted")
	}
	if n := set.NumEvents(); n != 0 {
		t.Fatalf("failed batch left %d events behind", n)
	}

	// A regression against already-applied state (not just intra-batch)
	// must also roll back to nothing-new.
	if err := set.RecordBatch([]core.Event{
		core.MoveEvent(roadA, fromA, 10),
		core.MoveEvent(roadB, fromB, 20),
	}); err != nil {
		t.Fatal(err)
	}
	if err := set.RecordBatch([]core.Event{
		core.MoveEvent(roadA, fromA, 11),
		core.MoveEvent(roadB, fromB, 15),
	}); err == nil {
		t.Fatal("regression against applied state accepted")
	}
	if n := set.NumEvents(); n != 2 {
		t.Fatalf("failed batch changed event count: %d != 2", n)
	}
}

// TestSetConcurrentIngest hammers per-partition writers against
// concurrent readers under -race: per-edge streams are independent, so
// partitioned ingest must be safe with readers on the composite.
func TestSetConcurrentIngest(t *testing.T) {
	w := testWorld(t, 13)
	lay, err := partition.Build(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	set := partition.NewSet(w, lay)
	region, err := core.NewRegion(w, w.JunctionsIn(w.Bounds()))
	if err != nil {
		t.Fatal(err)
	}

	const perWriter = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts := rr.Float64() * perWriter
				if got := core.SnapshotCount(set, region, ts); got < 0 {
					t.Errorf("negative occupancy %v", got)
					return
				}
			}
		}(int64(r))
	}
	// Writers: each goroutine owns a disjoint set of edges (sharded by
	// road ID), so per-edge monotonicity holds within each writer.
	var ww sync.WaitGroup
	for wr := 0; wr < 4; wr++ {
		ww.Add(1)
		go func(wr int) {
			defer ww.Done()
			rng := rand.New(rand.NewSource(int64(100 + wr)))
			for i := 0; i < perWriter; i++ {
				e := planar.EdgeID(rng.Intn(w.Star.NumEdges())/4*4 + wr)
				if int(e) >= w.Star.NumEdges() {
					continue
				}
				if err := set.RecordBatch([]core.Event{core.MoveEvent(e, w.Star.Edge(e).U, float64(i))}); err != nil {
					t.Errorf("writer %d: %v", wr, err)
					return
				}
			}
		}(wr)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if set.NumEvents() == 0 {
		t.Fatal("no events ingested")
	}
}

// TestSetSnapshotIsTheUnion: a set's snapshot is the snapshot one store
// fed the same events exports, and it restores into a set of any size —
// or into one store — as the same union, with the same answers.
// Restoring refuses an edge id outside the world before it routes
// anything, a non-empty set, and a set over members it did not build.
func TestSetSnapshotIsTheUnion(t *testing.T) {
	w := testWorld(t, 3)
	events := walkEvents(w, 3000, 5)
	single := core.NewStore(w)
	if err := single.RecordBatch(events); err != nil {
		t.Fatal(err)
	}
	want := single.ExportSnapshot()
	lay4, err := partition.Build(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	set := partition.NewSet(w, lay4)
	if err := set.RecordBatch(events); err != nil {
		t.Fatal(err)
	}
	got, err := set.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the 4-member union (%d edges, %d events) is not the single store's snapshot (%d edges, %d events)",
			len(got.Roads), got.Events, len(want.Roads), want.Events)
	}
	region, err := core.NewRegion(w, w.JunctionsIn(w.Bounds().Expand(-w.Bounds().Width()/4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, cells := range []int{2, 3, 8} {
		lay, err := partition.Build(w, cells)
		if err != nil {
			t.Fatal(err)
		}
		re := partition.NewSet(w, lay)
		if err := re.RestoreSnapshot(want); err != nil {
			t.Fatalf("cells=%d: %v", cells, err)
		}
		if again, err := re.ExportSnapshot(); err != nil || !reflect.DeepEqual(again, want) {
			t.Fatalf("cells=%d: restored set exports a different snapshot (err %v)", cells, err)
		}
		for _, at := range []float64{want.Clock / 3, want.Clock} {
			if a, b := core.StaticCount(re, region, at/2, at), core.StaticCount(single, region, at/2, at); a != b {
				t.Fatalf("cells=%d at %v: restored set counts %v, the store %v", cells, at, a, b)
			}
			if a, b := core.SnapshotCount(re, region, at), core.SnapshotCount(single, region, at); a != b {
				t.Fatalf("cells=%d at %v: restored set counts %v, the store %v", cells, at, a, b)
			}
		}
		if err := re.RestoreSnapshot(want); err == nil {
			t.Fatalf("cells=%d: restored twice into the same set", cells)
		}
	}

	wild := *want
	wild.Roads = append(append([]core.RoadForms(nil), want.Roads...), core.RoadForms{Road: planar.EdgeID(w.NumTrackedEdges()), Fwd: []float64{want.Clock}})
	wild.Events++
	if err := partition.NewSet(w, lay4).RestoreSnapshot(&wild); err == nil {
		t.Fatal("an edge id past the world was restored")
	}
	remote := partition.NewSetOver(w, lay4, []partition.Member{core.NewStore(w), core.NewStore(w), core.NewStore(w), core.NewStore(w)})
	if _, err := remote.ExportSnapshot(); err == nil {
		t.Fatal("a set over caller-supplied members exported a snapshot")
	}
	if err := remote.RestoreSnapshot(want); err == nil {
		t.Fatal("a set over caller-supplied members restored a snapshot")
	}
}
