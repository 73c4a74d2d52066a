package stq

// Seeded property tests of the spatially partitioned multi-store
// (DESIGN.md §14): a partitioned system must answer every query kind
// bit-identically to a single-store system over the same world and
// event stream — exact, sampled (with placement), degraded (with a
// fault plan), and after crash recovery at any partition count.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// newPartitionPair builds a single-store reference system and a
// P-partition system over the same world, both ingesting the same
// seeded workload.
func newPartitionPair(t *testing.T, partitions int) (single, parted *System, wl *Workload) {
	t.Helper()
	single, wl = newTestSystem(t)
	parted, err := NewPartitionedSystem(single.World(), partitions)
	if err != nil {
		t.Fatal(err)
	}
	if got := parted.NumPartitions(); got != partitions {
		t.Fatalf("NumPartitions = %d, want %d", got, partitions)
	}
	if err := parted.Ingest(wl); err != nil {
		t.Fatal(err)
	}
	return single, parted, wl
}

// straddleRects returns query rects together with how many partitions
// each straddles (distinct owners among the junctions it contains), and
// requires the set to cover 1-, 2-, and all-partition straddles so the
// suite exercises every scatter-gather shape.
func straddleRects(t *testing.T, sys *System, wantAll int) []Rect {
	t.Helper()
	lay := sys.PartitionLayout()
	if lay == nil {
		t.Fatal("partitioned system has no layout")
	}
	b := sys.Bounds()
	candidates := []Rect{
		centered(sys, 1.2),  // whole world
		centered(sys, 0.9),  // nearly whole
		centered(sys, 0.5),  // center block
		centered(sys, 0.25), // small center block
		{Min: b.Min, Max: Point{X: b.Min.X + b.Width()*0.45, Y: b.Min.Y + b.Height()*0.45}},        // one corner
		{Min: b.Min, Max: Point{X: b.Min.X + b.Width()*0.2, Y: b.Min.Y + b.Height()*0.2}},          // small corner
		{Min: Point{X: b.Min.X, Y: b.Min.Y}, Max: Point{X: b.Max.X, Y: b.Min.Y + b.Height()*0.45}}, // bottom half
		{Min: Point{X: b.Min.X, Y: b.Min.Y}, Max: Point{X: b.Min.X + b.Width()*0.45, Y: b.Max.Y}},  // left half
	}
	counts := make(map[int]bool)
	for _, r := range candidates {
		owners := make(map[int]bool)
		for _, j := range sys.World().JunctionsIn(r) {
			owners[lay.OwnerOfJunction(j)] = true
		}
		counts[len(owners)] = true
	}
	if !counts[1] {
		t.Log("no candidate rect stayed within one partition; straddle coverage reduced")
	}
	if !counts[wantAll] {
		t.Fatalf("no candidate rect straddles all %d partitions", wantAll)
	}
	return candidates
}

// assertIdenticalResponses requires bit-identical full responses (count
// and all access metrics) across the rect/kind/bound/time grid.
func assertIdenticalResponses(t *testing.T, single, parted *System, rects []Rect, horizon float64) {
	t.Helper()
	for ri, rect := range rects {
		for _, kind := range []Kind{Snapshot, Static, Transient} {
			for _, bound := range []Bound{Lower, Upper} {
				q := Query{Rect: rect, T1: horizon * 0.3, T2: horizon * 0.7, Kind: kind, Bound: bound}
				want, err := single.Query(q)
				if err != nil {
					t.Fatalf("rect %d %v/%v: single-store query: %v", ri, kind, bound, err)
				}
				got, err := parted.Query(q)
				if err != nil {
					t.Fatalf("rect %d %v/%v: partitioned query: %v", ri, kind, bound, err)
				}
				if got.Count != want.Count {
					t.Errorf("rect %d %v/%v: partitioned count %v != single-store %v",
						ri, kind, bound, got.Count, want.Count)
				}
				if got.Missed != want.Missed || got.RegionFaces != want.RegionFaces ||
					got.NodesAccessed != want.NodesAccessed || got.EdgesAccessed != want.EdgesAccessed {
					t.Errorf("rect %d %v/%v: partitioned metrics (%v,%d,%d,%d) != single-store (%v,%d,%d,%d)",
						ri, kind, bound,
						got.Missed, got.RegionFaces, got.NodesAccessed, got.EdgesAccessed,
						want.Missed, want.RegionFaces, want.NodesAccessed, want.EdgesAccessed)
				}
				if (got.Degradation == nil) != (want.Degradation == nil) {
					t.Errorf("rect %d %v/%v: degradation presence differs", ri, kind, bound)
				} else if got.Degradation != nil && *got.Degradation != *want.Degradation {
					t.Errorf("rect %d %v/%v: degradation %+v != %+v", ri, kind, bound, got.Degradation, want.Degradation)
				}
			}
		}
	}
}

// TestPartitionedBitIdenticalExact: unsampled partitioned answers equal
// single-store answers bit for bit, at every partition count, for rects
// straddling one, several, and all partitions.
func TestPartitionedBitIdenticalExact(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		single, parted, wl := newPartitionPair(t, p)
		if parted.NumEvents() != single.NumEvents() {
			t.Fatalf("p=%d: event counts differ: %d != %d", p, parted.NumEvents(), single.NumEvents())
		}
		rects := straddleRects(t, parted, p)
		assertIdenticalResponses(t, single, parted, rects, wl.Horizon)
	}
}

// TestPartitionedBitIdenticalSampled: with identical sensor placement,
// sampled lower/upper bounds stay bit-identical too.
func TestPartitionedBitIdenticalSampled(t *testing.T) {
	single, parted, wl := newPartitionPair(t, 4)
	if err := single.PlaceSensors(PlacementQuadTree, 25, 9); err != nil {
		t.Fatal(err)
	}
	if err := parted.PlaceSensors(PlacementQuadTree, 25, 9); err != nil {
		t.Fatal(err)
	}
	rects := straddleRects(t, parted, 4)
	assertIdenticalResponses(t, single, parted, rects, wl.Horizon)
}

// TestPartitionedDurableRecovery: a partitioned durable system that
// crashes (no Close, no final checkpoint for the tail) recovers from its
// checkpoint and log and answers bit-identically to a fresh
// single-store system over the same events.
func TestPartitionedDurableRecovery(t *testing.T) {
	w := durableTestWorld(t)
	dir := t.TempDir()
	sys, err := OpenDurable(w, Durability{Dir: dir, Partitions: 4})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if sys.NumPartitions() != 4 {
		t.Fatalf("NumPartitions = %d, want 4", sys.NumPartitions())
	}
	if !sys.Durable() {
		t.Fatal("partitioned system not durable")
	}
	batches := durableBatches(w, 30, 6, 0, 33)
	for i, b := range batches {
		if err := sys.RecordBatch(b); err != nil {
			t.Fatalf("RecordBatch %d: %v", i, err)
		}
		if i == len(batches)/2 {
			// A mid-stream checkpoint: recovery must combine the
			// restored union snapshot with the replayed log tail.
			if err := sys.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	if err := sys.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL: %v", err)
	}
	want := sys.NumEvents()
	horizon := 30 * 6 * 3.0

	// Crash: reopen the directory without closing. The recovered system
	// must see every synced event.
	re, err := OpenDurable(w, Durability{Dir: dir, Partitions: 4})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Close()
	if re.NumEvents() != want {
		t.Fatalf("recovered %d events, want %d", re.NumEvents(), want)
	}
	// Reference: a fresh single-store (non-durable) system over the same
	// stream. Recovery must be bit-identical to it, not merely to the
	// crashed partitioned instance.
	ref := NewSystem(w)
	for _, b := range batches {
		if err := ref.RecordBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	assertSameAnswers(t, ref, re, horizon)

	// The recovered system keeps ingesting and stays consistent.
	more := durableBatches(w, 3, 6, horizon+1, 44)
	for _, b := range more {
		if err := re.RecordBatch(b); err != nil {
			t.Fatalf("post-recovery RecordBatch: %v", err)
		}
		if err := ref.RecordBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	assertSameAnswers(t, ref, re, horizon+60)
}

// TestPartitionedDurableCountMismatch: a durable directory does not
// depend on the partition count it was written with. Written at 1 and
// at 4 partitions — with a checkpoint mid-stream, so the union restore
// and the replay are both crossed — it
// reopens at 1, 2 and 4 with answers bit-identical to the writer's and
// a re-exported union snapshot equal to the one taken before Close.
func TestPartitionedDurableCountMismatch(t *testing.T) {
	w := durableTestWorld(t)
	batches := durableBatches(w, 20, 6, 0, 5)
	horizon := 20 * 6 * 3.0
	for _, wrote := range []int{1, 4} {
		dir := t.TempDir()
		sys, err := OpenDurable(w, Durability{Dir: dir, Partitions: wrote})
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range batches {
			if err := sys.RecordBatch(b); err != nil {
				t.Fatal(err)
			}
			if i == 9 {
				if err := sys.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := unionSnapshot(t, sys)
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		for _, reopen := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%d->%d", wrote, reopen), func(t *testing.T) {
				re, err := OpenDurable(w, Durability{Dir: dir, Partitions: reopen})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer re.Close()
				if got := re.NumPartitions(); got != reopen {
					t.Fatalf("NumPartitions = %d, want %d", got, reopen)
				}
				assertSameAnswers(t, sys, re, horizon)
				if got := unionSnapshot(t, re); !reflect.DeepEqual(got, want) {
					t.Fatalf("re-exported snapshot (%d events, clock %v) differs from the writer's (%d events, clock %v)",
						got.Events, got.Clock, want.Events, want.Clock)
				}
			})
		}
	}
}

// TestOpenDurableRefusesPerPartitionLayout: a directory an older build
// wrote with one log per partition — partitions.json beside part-NNN
// log directories — fails OpenDurable at every partition count with an
// error naming both, and the refused open leaves every file as it was.
func TestOpenDurableRefusesPerPartitionLayout(t *testing.T) {
	w := durableTestWorld(t)
	// One real log, to stand in for each partition's.
	src := t.TempDir()
	sys, err := OpenDurable(w, Durability{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RecordBatch(durableBatches(w, 1, 8, 0, 7)[0]); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	for name, layout := range map[string][]string{
		"meta and logs": {"partitions.json", "part-000", "part-001"},
		"meta alone":    {"partitions.json"},
		"logs alone":    {"part-000", "part-001"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, entry := range layout {
				if entry == "partitions.json" {
					if err := os.WriteFile(filepath.Join(dir, entry), []byte(`{"partitions":2}`), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := os.Rename(copyDir(t, src), filepath.Join(dir, entry)); err != nil {
					t.Fatal(err)
				}
			}
			before := dirFiles(t, dir)
			for _, parts := range []int{1, 2, 4} {
				_, err := OpenDurable(w, Durability{Dir: dir, Partitions: parts})
				if err == nil || !strings.Contains(err.Error(), "partitions.json") || !strings.Contains(err.Error(), "part-NNN") {
					t.Fatalf("partitions=%d: err = %v, want a refusal naming partitions.json and part-NNN", parts, err)
				}
			}
			if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("the refused open changed the directory: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// TestPartitionedOrderingRecovered: a 4-partition system reopens the
// ordering records and the ordering byte an older build wrote (see
// olderOrderingFiles) as if they were not there.
func TestPartitionedOrderingRecovered(t *testing.T) { reopenOlderOrdering(t, 4) }
