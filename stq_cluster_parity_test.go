package stq

// The partitioned System and the cluster router run the same
// partition.Set routing over different members (DESIGN.md §14, §16), so
// a batch either refuses must be refused by both, for the same reason,
// in the same words — and a refusal must leave no trace in the router's
// bookkeeping.

import (
	"fmt"
	"testing"

	"repro/internal/partition"
)

// roadOwnedBy returns a road of the layout owned by cell p.
func roadOwnedBy(t *testing.T, lay *partition.Layout, p int) EdgeID {
	t.Helper()
	for e, own := range lay.CellOfRoad {
		if own == p {
			return EdgeID(e)
		}
	}
	t.Fatalf("cell %d owns no road", p)
	return 0
}

// TestClusterErrorParity feeds the same malformed batches to a
// 4-partition System and a 4-cell cluster. Errors the Set raises while
// routing are string-equal; errors a member raises differ only by the
// "cell N: " prefix the cell client adds. Every refusal applies nothing
// on either side.
func TestClusterErrorParity(t *testing.T) {
	tc := bootTestCluster(t, 4, false)
	parted, err := NewPartitionedSystem(tc.world, 4)
	if err != nil {
		t.Fatal(err)
	}
	both := []*System{parted, tc.sys}

	roadA, roadB := roadOwnedBy(t, tc.lay, 0), roadOwnedBy(t, tc.lay, 1)
	fromA, fromB := tc.world.Star.Edge(roadA).U, tc.world.Star.Edge(roadB).U
	notOnA := fromA
	for e := tc.world.Star.Edge(roadA); notOnA == e.U || notOnA == e.V; {
		notOnA++
	}
	for _, sys := range both {
		if err := sys.SetIngestOrdering(OrderPerEdge); err != nil {
			t.Fatal(err)
		}
		if err := sys.RecordBatch([]Event{MoveEvent(roadA, fromA, 100)}); err != nil {
			t.Fatal(err)
		}
	}

	const router = -1
	cases := []struct {
		name     string
		ordering Ordering
		batch    []Event
		// member is the cell whose refusal the error carries, or router.
		member int
	}{
		{"road out of range", OrderPerEdge, []Event{MoveEvent(EdgeID(len(tc.lay.CellOfRoad)), fromA, 200)}, router},
		{"from not an endpoint", OrderPerEdge, []Event{MoveEvent(roadA, notOnA, 200)}, router},
		{"gateway out of range", OrderPerEdge, []Event{EnterEvent(NodeID(len(tc.lay.CellOfJunction)), 200)}, router},
		{"unknown kind", OrderPerEdge, []Event{{Kind: 99, T: 200}}, router},
		{"intra-batch global order", OrderGlobal, []Event{MoveEvent(roadA, fromA, 300), MoveEvent(roadB, fromB, 200)}, router},
		{"behind the composite clock", OrderGlobal, []Event{MoveEvent(roadB, fromB, 50)}, router},
		{"per-edge order, one member", OrderPerEdge, []Event{MoveEvent(roadA, fromA, 200), MoveEvent(roadA, fromA, 50)}, 0},
		{"per-edge order, across members", OrderPerEdge, []Event{MoveEvent(roadB, fromB, 10), MoveEvent(roadA, fromA, 50)}, 0},
	}
	for _, c := range cases {
		var errs [2]error
		for i, sys := range both {
			if err := sys.SetIngestOrdering(c.ordering); err != nil {
				t.Fatal(err)
			}
			errs[i] = sys.RecordBatch(c.batch)
			if errs[i] == nil {
				t.Fatalf("%s: system %d accepted the batch", c.name, i)
			}
			if n := sys.NumEvents(); n != 1 {
				t.Fatalf("%s: system %d holds %d events after a refusal, want 1", c.name, i, n)
			}
		}
		want := errs[0].Error()
		if c.member != router {
			want = fmt.Sprintf("cell %d: %s", c.member, want)
		}
		if got := errs[1].Error(); got != want {
			t.Errorf("%s:\n  routed      %q\n  partitioned %q\n  want routed %q", c.name, got, errs[0], want)
		}
	}
	for p, cell := range tc.cells {
		want := 0
		if p == 0 {
			want = 1 // the seed event on roadA
		}
		if got := cell.NumEvents(); got != want {
			t.Errorf("cell %d holds %d events, want %d", p, got, want)
		}
	}
}

// TestClusterNumEventsAfterRefusedBatches: the router bumps a cell's
// event bound before it sends a batch, so that a lost acknowledgement
// overcounts. A definitive refusal applied nothing, and pre-fix the bump
// stayed anyway: one accepted event and five refused 2-event batches
// left the router at 11 events over cells holding 1, and every later
// outage widened by the inflated bound.
func TestClusterNumEventsAfterRefusedBatches(t *testing.T) {
	tc := bootTestCluster(t, 2, false)
	road := roadOwnedBy(t, tc.lay, 0)
	from := tc.world.Star.Edge(road).U
	if err := tc.sys.RecordBatch([]Event{MoveEvent(road, from, 100)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		stale := []Event{MoveEvent(road, from, 10), MoveEvent(road, from, 20)}
		if err := tc.sys.RecordBatch(stale); err == nil {
			t.Fatal("stale batch accepted")
		}
	}
	held := 0
	for _, cell := range tc.cells {
		held += cell.NumEvents()
	}
	if got := tc.sys.NumEvents(); got != held {
		t.Fatalf("router NumEvents = %d, cells hold %d", got, held)
	}
}
