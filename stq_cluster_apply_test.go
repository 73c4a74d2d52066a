package stq

// Numbered applies (DESIGN.md §16.3): a routed batch costs one apply
// exchange per involved cell, a cell applies a number at most once, and
// a batch one cell did not confirm is completed when that cell rejoins.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/wire"
)

// How a cell cuts the connection of a numbered apply (testCluster.cut).
const (
	cutBefore = 1 // before the cell applied the sub-batch
	cutAfter  = 2 // after: the acknowledgement is lost
)

// ownerOfEvent is the cell the layout gives ev to.
func ownerOfEvent(lay *partition.Layout, ev Event) int {
	if ev.Kind == EventMove {
		return lay.OwnerOfRoad(ev.Road)
	}
	return lay.OwnerOfJunction(ev.Gateway)
}

// cutModes are the two ways a cell drops a numbered apply.
var cutModes = []struct {
	name string
	mode int32
}{{"before the apply", cutBefore}, {"after the apply", cutAfter}}

// straddling is a batch of one move per cell, cell p's at t0+p+1.
func straddling(t *testing.T, tc *testCluster, t0 float64) []Event {
	t.Helper()
	var b []Event
	for p := 0; p < tc.man.Cells; p++ {
		road := roadOwnedBy(t, tc.lay, p)
		b = append(b, MoveEvent(road, tc.world.Star.Edge(road).U, t0+float64(p+1)))
	}
	return b
}

// assertKept checks the error of a batch cell victim did not confirm:
// the cell is unavailable, and the batch committed and kept for it.
func assertKept(t *testing.T, err error, victim int) {
	t.Helper()
	if !errors.Is(err, ErrClusterUnavailable) || !errors.Is(err, partition.ErrParked) ||
		!strings.Contains(err.Error(), "committed") || !strings.Contains(err.Error(), "must not be sent again") ||
		!strings.Contains(err.Error(), fmt.Sprintf("cell %d", victim)) {
		t.Fatalf("batch cell %d did not confirm: err %v, want ErrClusterUnavailable and partition.ErrParked, naming the cell and saying the batch is committed", victim, err)
	}
}

// assertHeldOnce checks that every cell holds its share of the batches
// exactly once and that the router answers as ref, fed the same batches.
func assertHeldOnce(t *testing.T, tc *testCluster, ref *System, horizon float64, batches ...[]Event) {
	t.Helper()
	want := make([]int, tc.man.Cells)
	for _, b := range batches {
		for _, ev := range b {
			want[ownerOfEvent(tc.lay, ev)]++
		}
	}
	for p, cell := range tc.cells {
		if got := cell.NumEvents(); got != want[p] {
			t.Errorf("cell %d holds %d events, want %d", p, got, want[p])
		}
	}
	if got, want := tc.sys.NumEvents(), ref.NumEvents(); got != want {
		t.Errorf("router counts %d events, reference %d", got, want)
	}
	assertSameAnswers(t, ref, tc.sys, horizon)
}

// TestClusterKillBetweenApplies: one cell cuts the connection of every
// apply of a batch straddling all four cells, retries included — before
// it applied the sub-batch, or after (a lost acknowledgement). The
// router reports the batch committed, parks the cell's share and marks
// the cell dead; the probe's handshake re-sends the share, or drops it
// when the cell holds it already. Every cell then holds the batch
// exactly once, and the router answers bit-identically to one system
// fed the same batches.
func TestClusterKillBetweenApplies(t *testing.T) {
	for _, c := range cutModes {
		t.Run(c.name, func(t *testing.T) {
			tc := bootTestCluster(t, 4, false)
			ref := NewSystem(tc.world)
			batches := durableBatches(tc.world, 20, 8, 0, 5)
			horizon := 20 * 8 * 3.0
			straddle := straddling(t, tc, horizon)
			after := durableBatches(tc.world, 5, 8, horizon+10, 6)
			for _, b := range batches {
				for _, sys := range []*System{ref, tc.sys} {
					if err := sys.RecordBatch(b); err != nil {
						t.Fatal(err)
					}
				}
			}
			const victim = 2
			tc.cut[victim].Store(c.mode)
			err := tc.sys.RecordBatch(straddle)
			tc.cut[victim].Store(0)
			assertKept(t, err, victim)
			if tc.rset.CellAlive(victim) {
				t.Fatal("a cell that confirmed nothing is still alive")
			}
			if err := ref.RecordBatch(straddle); err != nil {
				t.Fatal(err)
			}
			tc.rset.Probe()
			if !tc.rset.CellAlive(victim) {
				t.Fatal("the cell did not rejoin")
			}
			for _, b := range after {
				for _, sys := range []*System{ref, tc.sys} {
					if err := sys.RecordBatch(b); err != nil {
						t.Fatal(err)
					}
				}
			}
			assertHeldOnce(t, tc, ref, horizon+30, append(append(batches, straddle), after...)...)
		})
	}
}

// TestClusterRejoinBeforeBatchReturns: the cell that did not confirm its
// share rejoins — the share re-sent, or dropped as held — while another
// cell's apply of the same batch is still in flight, as when the health
// loop probes during a slow phase 2. The Set does not ask the cell for
// the kept share again when the batch returns, so every cell holds the
// batch once.
func TestClusterRejoinBeforeBatchReturns(t *testing.T) {
	for _, c := range cutModes {
		t.Run(c.name, func(t *testing.T) {
			tc := bootTestCluster(t, 4, false)
			ref := NewSystem(tc.world)
			straddle := straddling(t, tc, 0)
			const victim, slow = 2, 3
			release := make(chan struct{})
			tc.hold[slow].Store(&release)
			tc.cut[victim].Store(c.mode)
			errc := make(chan error, 1)
			go func() { errc <- tc.sys.RecordBatch(straddle) }()
			waitFor(t, func() bool { return !tc.rset.CellAlive(victim) }, "the cut cell to be marked dead")
			tc.cut[victim].Store(0)
			tc.rset.Probe()
			rejoined := tc.rset.CellAlive(victim)
			tc.hold[slow].Store(nil)
			close(release)
			err := <-errc
			if !rejoined {
				t.Fatal("the cell did not rejoin during the batch")
			}
			assertKept(t, err, victim)
			if err := ref.RecordBatch(straddle); err != nil {
				t.Fatal(err)
			}
			assertHeldOnce(t, tc, ref, 10, straddle)
		})
	}
}

// TestClusterKeptGroupIsNotAppliedAgain: a router's group commit whose
// combined batch one cell did not confirm is committed. Every request in
// the group gets that verdict and none is applied again on its own — a
// request the live cells already hold would count twice — and once the
// cell rejoins every cell holds each request once.
func TestClusterKeptGroupIsNotAppliedAgain(t *testing.T) {
	tc := bootTestCluster(t, 2, false)
	srv := NewServer(tc.sys, ServerConfig{})
	t.Cleanup(func() { _ = srv.Drain() })
	ref := NewSystem(tc.world)
	road := roadOwnedBy(t, tc.lay, 0)
	reqs := []ingestReq{
		{events: straddling(t, tc, 0), done: make(chan error, 1)},
		{events: []Event{MoveEvent(road, tc.world.Star.Edge(road).U, 10)}, done: make(chan error, 1)},
	}
	const victim = 1
	tc.cut[victim].Store(cutBefore)
	srv.commit(reqs, 3)
	tc.cut[victim].Store(0)
	for _, r := range reqs {
		assertKept(t, <-r.done, victim)
	}
	tc.rset.Probe()
	for _, r := range reqs {
		if err := ref.RecordBatch(r.events); err != nil {
			t.Fatal(err)
		}
	}
	assertHeldOnce(t, tc, ref, 20, reqs[0].events, reqs[1].events)
}

// TestClusterDuplicateApplyCountsOnce: the same numbered frame POSTed
// to a cell twice counts once, and so does a lower number after it. A
// cell takes no write — an apply or a validation — before a router has
// shaken hands with it since it started, and no ingest without a number.
func TestClusterDuplicateApplyCountsOnce(t *testing.T) {
	tc := bootTestCluster(t, 2, false)
	road := roadOwnedBy(t, tc.lay, 0)
	e := tc.world.Star.Edge(road)
	batch := []Event{MoveEvent(road, e.U, 10), MoveEvent(road, e.V, 11)}
	frame := wire.MarshalIngest(batch, wire.DefaultTick)
	post := func(h http.Handler, path string, body []byte) int {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.ContentType)
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	for _, query := range []string{"?seq=5", "?seq=5", "?seq=4"} {
		if code := post(tc.srvs[0], "/v1/ingest"+query, frame); code != http.StatusOK {
			t.Fatalf("numbered apply %s: HTTP %d", query, code)
		}
	}
	if n := tc.cells[0].NumEvents(); n != len(batch) {
		t.Fatalf("cell holds %d events after one apply sent three times, want %d", n, len(batch))
	}
	for _, query := range []string{"", "?seq=0", "?seq=x", "?n=6"} {
		if code := post(tc.srvs[0], "/v1/ingest"+query, frame); code != http.StatusConflict {
			t.Errorf("ingest %q: HTTP %d, want 409", query, code)
		}
	}
	cc := &CellConfig{Index: 0, Cells: 2, ManifestHash: tc.man.LayoutHash, Layout: tc.lay}
	fresh := NewServer(NewSystem(tc.world), ServerConfig{Cell: cc})
	defer fresh.Drain()
	var enc wire.Encoder
	validate := enc.EncodeScatter(wire.ScatterFrame{Op: wire.OpValidate, Events: batch, Tick: wire.DefaultTick})
	if code := post(fresh, "/v1/cell", validate); code != http.StatusConflict {
		t.Errorf("validation before a handshake: HTTP %d, want 409", code)
	}
	if code := post(fresh, "/v1/ingest?seq=1", frame); code != http.StatusConflict {
		t.Errorf("apply before a handshake: HTTP %d, want 409", code)
	}
	if n := fresh.System().NumEvents(); n != 0 {
		t.Errorf("a cell no router greeted applied %d events", n)
	}
}

// TestCellAppliedNumberSurvivesReopen: a durable cell's last apply
// number comes back from its log after a crash and from its checkpoint
// after a clean stop, so an apply it holds is still acknowledged without
// applying again.
func TestCellAppliedNumberSurvivesReopen(t *testing.T) {
	w := durableTestWorld(t)
	dir := t.TempDir()
	batches := durableBatches(w, 3, 4, 0, 9)
	noCheck := func() error { return nil }
	sys, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range []uint64{5, 9} {
		if dup, err := sys.recordSeq(seq, batches[i], noCheck); dup || err != nil {
			t.Fatalf("apply %d: dup %v, err %v", seq, dup, err)
		}
	}
	if err := sys.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	// A crash: the directory is opened again with the writer never closed.
	crashed, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := crashed.appliedNumber(); got != 9 {
		t.Fatalf("after a crash the cell applied up to %d, want 9", got)
	}
	held := crashed.NumEvents()
	if dup, err := crashed.recordSeq(9, batches[1], noCheck); !dup || err != nil || crashed.NumEvents() != held {
		t.Fatalf("apply 9 again after a crash: dup %v, err %v, %d events (want %d)", dup, err, crashed.NumEvents(), held)
	}
	if dup, err := crashed.recordSeq(12, batches[2], noCheck); dup || err != nil {
		t.Fatalf("apply 12: dup %v, err %v", dup, err)
	}
	if err := crashed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(w, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.appliedNumber(); got != 12 || re.NumEvents() != crashed.NumEvents() {
		t.Fatalf("after a checkpoint: applied up to %d with %d events, want 12 with %d", got, re.NumEvents(), crashed.NumEvents())
	}
	assertSameAnswers(t, crashed, re, 3*4*3)
}

// BenchmarkRoutedIngest is one routed batch of 64 time-sorted events
// spread over four cells on loopback sockets, the cells' share
// included. exchanges/op counts the router's exchanges with the cells
// (cluster.rpcs).
func BenchmarkRoutedIngest(b *testing.B) {
	man, world, lay, err := cluster.NewManifest(cluster.GridSpec(GridOpts{NX: 10, NY: 10, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.15}, 7), 4)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]string, lay.Cells)
	for p := range addrs {
		cc := &CellConfig{Index: p, Cells: lay.Cells, ManifestHash: man.LayoutHash, Layout: lay}
		srv := NewServer(NewSystem(world), ServerConfig{Cell: cc})
		ts := httptest.NewServer(srv)
		b.Cleanup(func() {
			ts.Close()
			srv.Drain()
		})
		addrs[p] = ts.URL
	}
	rs, err := cluster.Dial(man, addrs, cluster.Options{HealthInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	sys := NewClusterSystem(rs)
	b.Cleanup(func() { sys.Close() })
	var roads []EdgeID
	for p := 0; p < lay.Cells; p++ {
		for e, own := range lay.CellOfRoad {
			if own == p {
				roads = append(roads, EdgeID(e))
				break
			}
		}
	}
	obs.Enable()
	rpcs := obs.Default.Counter("cluster.rpcs")
	batch := make([]Event, 64)
	t := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	before := rpcs.Value()
	for i := 0; i < b.N; i++ {
		for k := range batch {
			t++
			road := roads[k%len(roads)]
			batch[k] = MoveEvent(road, world.Star.Edge(road).U, t)
		}
		if err := sys.RecordBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rpcs.Value()-before)/float64(b.N), "exchanges/op")
}
