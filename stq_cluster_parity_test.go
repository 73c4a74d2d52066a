package stq

// The partitioned System and the cluster router run the same
// partition.Set routing over different members (DESIGN.md §14, §16), so
// a batch either refuses must be refused by both, for the same reason,
// in the same words — and a refusal must leave no trace in the router's
// bookkeeping. A query one surface refuses, every surface refuses.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/partition"
	"repro/internal/wire"
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
		if err := sys.RecordBatch([]Event{MoveEvent(roadA, fromA, 100)}); err != nil {
			t.Fatal(err)
		}
	}

	const router = -1
	cases := []struct {
		name  string
		batch []Event
		// member is the cell whose refusal the error carries, or router.
		member int
	}{
		{"road out of range", []Event{MoveEvent(EdgeID(len(tc.lay.CellOfRoad)), fromA, 200)}, router},
		{"from not an endpoint", []Event{MoveEvent(roadA, notOnA, 200)}, router},
		{"gateway out of range", []Event{EnterEvent(NodeID(len(tc.lay.CellOfJunction)), 200)}, router},
		{"unknown kind", []Event{{Kind: 99, T: 200}}, router},
		{"per-edge order within the batch, across members", []Event{MoveEvent(roadA, fromA, 300), MoveEvent(roadB, fromB, 200), MoveEvent(roadB, fromB, 150)}, 1},
		{"behind the edge's last crossing", []Event{MoveEvent(roadA, fromA, 50)}, 0},
		{"per-edge order, one member", []Event{MoveEvent(roadA, fromA, 200), MoveEvent(roadA, fromA, 50)}, 0},
		{"per-edge order, across members", []Event{MoveEvent(roadB, fromB, 10), MoveEvent(roadA, fromA, 50)}, 0},
	}
	for _, c := range cases {
		var errs [2]error
		for i, sys := range both {
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

// TestIngestPerEdgeByDefault: with no ordering call, a single, a
// 4-partition and a routed system take two goroutines ingesting on
// disjoint edges by clocks of their own, one 1000 s behind the other, and
// answer alike afterwards. All three refuse a regression on one
// direction in the same words, the routed one behind the "cell N: "
// prefix of the cell client.
func TestIngestPerEdgeByDefault(t *testing.T) {
	tc := bootTestCluster(t, 2, false)
	w := tc.world
	parted, err := NewPartitionedSystem(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	systems := []*System{NewSystem(w), parted, tc.sys}
	for i, sys := range systems {
		// Writer g owns the roads of parity g and starts at 1000·(1−g).
		// Both apply their first batch before either goes on, so writer 1
		// then ingests behind everything writer 0 applied.
		var first, wg sync.WaitGroup
		first.Add(2)
		errs := make(chan error, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var err error
				for k := 0; k < 50; k++ {
					road := EdgeID(2*(k%10) + g)
					if e := sys.RecordBatch([]Event{MoveEvent(road, w.Star.Edge(road).U, float64(1000*(1-g)+k))}); e != nil && err == nil {
						err = e
					}
					if k == 0 {
						first.Done()
						first.Wait()
					}
				}
				errs <- err
			}(g)
		}
		wg.Wait()
		for g := 0; g < 2; g++ {
			if err := <-errs; err != nil {
				t.Fatalf("system %d: independently clocked writers refused: %v", i, err)
			}
		}
		if n := sys.NumEvents(); n != 100 {
			t.Fatalf("system %d holds %d events, want 100", i, n)
		}
	}
	assertSameAnswers(t, systems[0], systems[1], 1050)
	assertSameAnswers(t, systems[0], systems[2], 1050)

	var errs [3]error
	for i, sys := range systems {
		errs[i] = sys.RecordBatch([]Event{MoveEvent(0, w.Star.Edge(0).U, 1039)})
		if errs[i] == nil {
			t.Fatalf("system %d accepted a regression on road 0", i)
		}
	}
	want := "core: batch event 0 at 1039 precedes last crossing 1040 on road 0 (per-edge order)"
	for i, text := range []string{want, want, fmt.Sprintf("cell %d: %s", tc.lay.OwnerOfRoad(0), want)} {
		if got := errs[i].Error(); got != text {
			t.Errorf("system %d: %q, want %q", i, got, text)
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

// TestNaNQueryTimeRefusedEverywhere: every comparison with NaN is false,
// so a NaN T1 or T2 used to pass Validate's order check and be answered
// — a snapshot at NaN as the count at +Inf — and a NaN rectangle corner
// passed the empty check and was answered as a miss. A single system, a
// partitioned one, the served wire surface (a query frame can carry any
// float) and a router refuse both as an invalid query, in the same
// words, on every kind; ±Inf bounds and corners stay legal, and every
// surface answers them alike. An unknown kind used to be answered 0 and
// an unknown bound as Lower; the library surfaces refuse both by name
// (the served decoders refuse them before a query is built).
func TestNaNQueryTimeRefusedEverywhere(t *testing.T) {
	ref, tc, wl := newClusterPair(t, 2)
	parted, err := NewPartitionedSystem(tc.world, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := parted.Ingest(wl); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ref, ServerConfig{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		if err := srv.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	library := func(sys *System) func(Query) (float64, error) {
		return func(q Query) (float64, error) {
			resp, err := sys.Query(q)
			if err != nil {
				if !errors.Is(err, ErrInvalidQuery) {
					t.Fatalf("%+v: error %v does not wrap ErrInvalidQuery", q, err)
				}
				return 0, err
			}
			return resp.Count, nil
		}
	}
	wireKind := map[Kind]byte{Snapshot: wire.QuerySnapshot, Static: wire.QueryStatic, Transient: wire.QueryTransient}
	served := func(q Query) (float64, error) {
		status, _, body := postWire(t, ts.URL+"/v1/query", wireQueryFrame(q.Rect, q.T1, q.T2, wireKind[q.Kind], wire.BoundLower))
		if status == http.StatusOK {
			res, err := wire.DecodeResult(parseKind(t, body, wire.KindResult))
			if err != nil {
				t.Fatal(err)
			}
			return res.Count, nil
		}
		st, msg, err := wire.DecodeError(parseKind(t, body, wire.KindError))
		if err != nil || status != http.StatusBadRequest || st != status {
			t.Fatalf("%+v: served HTTP %d, error frame status %d (%v), want 400", q, status, st, err)
		}
		return 0, errors.New(msg)
	}
	surfaces := []struct {
		name  string
		query func(Query) (float64, error)
	}{{"single", library(ref)}, {"partitioned", library(parted)}, {"served wire", served}, {"routed", library(tc.sys)}}

	rect, h := centered(ref, 0.6), wl.Horizon
	nan, inf := math.NaN(), math.Inf(1)
	for _, kind := range []Kind{Snapshot, Static, Transient} {
		for _, b := range [][2]float64{{nan, h / 2}, {h / 4, nan}, {nan, nan}} {
			q := Query{Rect: rect, T1: b[0], T2: b[1], Kind: kind}
			want := fmt.Sprintf("query: invalid request: time bound is NaN (T1 %v, T2 %v)", b[0], b[1])
			for _, s := range surfaces {
				if count, err := s.query(q); err == nil || err.Error() != want {
					t.Errorf("%s %v (%v, %v]: answered %v, err %v; want %q", s.name, kind, b[0], b[1], count, err, want)
				}
			}
		}
		for _, b := range [][2]float64{{-inf, h / 2}, {h / 4, inf}, {-inf, inf}} {
			q := Query{Rect: rect, T1: b[0], T2: b[1], Kind: kind}
			want, err := surfaces[0].query(q)
			if err != nil {
				t.Fatalf("single %v (%v, %v]: %v", kind, b[0], b[1], err)
			}
			for _, s := range surfaces[1:] {
				if got, err := s.query(q); err != nil || got != want {
					t.Errorf("%s %v (%v, %v]: %v, %v; single answers %v", s.name, kind, b[0], b[1], got, err, want)
				}
			}
		}
		for corner := 0; corner < 4; corner++ {
			for _, v := range []float64{nan, inf, -inf} {
				r := rect
				coords := [...]*float64{&r.Min.X, &r.Min.Y, &r.Max.X, &r.Max.Y}
				*coords[corner] = v
				q := Query{Rect: r, T1: h / 4, T2: h / 2, Kind: kind}
				if !math.IsNaN(v) {
					want, werr := surfaces[0].query(q)
					for _, s := range surfaces[1:] {
						if got, err := s.query(q); got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
							t.Errorf("%s %v rect %v: %v, %v; single answers %v, %v", s.name, kind, r, got, err, want, werr)
						}
					}
					continue
				}
				want := fmt.Sprintf("query: invalid request: rectangle coordinate is NaN %v", r)
				for _, s := range surfaces {
					if count, err := s.query(q); err == nil || err.Error() != want {
						t.Errorf("%s %v rect %v: answered %v, err %v; want %q", s.name, kind, r, count, err, want)
					}
				}
			}
		}
	}
	for _, c := range []struct {
		q    Query
		want string
	}{
		{Query{Rect: rect, T1: h / 4, T2: h / 2, Kind: 7}, "query: invalid request: unknown kind Kind(7)"},
		{Query{Rect: rect, T1: h / 4, T2: h / 2, Kind: -1}, "query: invalid request: unknown kind Kind(-1)"},
		{Query{Rect: rect, T1: h / 4, T2: h / 2, Kind: Snapshot, Bound: 5}, "query: invalid request: unknown bound Bound(5)"},
		{Query{Rect: rect, T1: h / 4, T2: h / 2, Kind: Transient, Bound: -1}, "query: invalid request: unknown bound Bound(-1)"},
	} {
		for _, s := range surfaces {
			if s.name == "served wire" {
				continue
			}
			if count, err := s.query(c.q); err == nil || err.Error() != c.want {
				t.Errorf("%s kind %d bound %d: answered %v, err %v; want %q", s.name, int(c.q.Kind), int(c.q.Bound), count, err, c.want)
			}
		}
	}
}
