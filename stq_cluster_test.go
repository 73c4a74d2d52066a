package stq

// Seeded end-to-end tests of the multi-process scale-out topology
// (DESIGN.md §16): N cells — real Servers in cell mode on loopback
// listeners — behind a router running the unmodified engine over the
// network-backed cluster store. The router must answer every query
// kind bit-identically to a single-process system over the same world
// and stream (exact, sampled, degraded, and after per-cell crash
// recovery), and a dead cell must degrade answers into sound widened
// intervals instead of failing them.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/roadnet"
	"repro/internal/wire"
)

// testCluster is one booted topology plus direct handles to every cell
// so tests can crash and restart them.
type testCluster struct {
	t     *testing.T
	man   *cluster.Manifest
	world *roadnet.World
	lay   *partition.Layout
	dirs  []string // durable cell directories ("" = in-memory cell)
	addrs []string
	cells []*System
	srvs  []*Server
	https []*http.Server
	// refuse[p], when non-zero, is the scatter op cell p answers once with
	// a 400 error frame instead of serving.
	refuse []atomic.Int32
	// forge[p], when set, rewrites the steps cell p answers its next
	// static scatter with: a cell breaking the protocol.
	forge []atomic.Pointer[stepForgery]
	// stall[p], when non-zero, is how cell p answers slowly rather than
	// not at all (stallSilent, stallTrickle).
	stall []atomic.Int32
	// cut[p], when non-zero, is how cell p answers every numbered apply:
	// it cuts the connection before applying (cutBefore) or after (cutAfter).
	cut []atomic.Int32
	// hold[p], when set, is a channel cell p's numbered applies wait on
	// before the cell serves them.
	hold []atomic.Pointer[chan struct{}]
	// cellCalls counts the /v1/cell requests (handshakes and scatters)
	// the cells received.
	cellCalls atomic.Int64
	rset      *cluster.RemoteSet
	sys       *System // the router-resident engine
}

// bootTestCluster materializes a pinned manifest over the standard test
// grid and boots the full topology. durable cells recover from their
// own WAL directories across restartCell.
func bootTestCluster(t *testing.T, cells int, durable bool) *testCluster {
	t.Helper()
	opts := GridOpts{NX: 10, NY: 10, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.15}
	man, world, lay, err := cluster.NewManifest(cluster.GridSpec(opts, 7), cells)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{
		t: t, man: man, world: world, lay: lay,
		dirs:   make([]string, cells),
		addrs:  make([]string, cells),
		cells:  make([]*System, cells),
		srvs:   make([]*Server, cells),
		https:  make([]*http.Server, cells),
		refuse: make([]atomic.Int32, cells),
		forge:  make([]atomic.Pointer[stepForgery], cells),
		stall:  make([]atomic.Int32, cells),
		cut:    make([]atomic.Int32, cells),
		hold:   make([]atomic.Pointer[chan struct{}], cells),
	}
	for p := 0; p < cells; p++ {
		if durable {
			tc.dirs[p] = t.TempDir()
		}
		tc.startCell(p, "127.0.0.1:0")
	}
	tc.rset, err = cluster.Dial(man, tc.addrs, cluster.Options{
		Timeout: 5 * time.Second, Attempts: 2, Backoff: time.Millisecond,
		HealthInterval: -1, // tests drive Probe explicitly
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.sys = NewClusterSystem(tc.rset)
	t.Cleanup(func() {
		for _, hs := range tc.https {
			if hs != nil {
				hs.Close()
			}
		}
		tc.sys.Close()
		for p, srv := range tc.srvs {
			if srv != nil {
				srv.Drain()
				tc.cells[p].Close()
			}
		}
	})
	return tc
}

// startCell boots (or re-boots) cell p on addr. With a durable
// directory the system recovers its WAL first — the crash-recovery
// path a restarted stqd -cell takes.
func (tc *testCluster) startCell(p int, addr string) {
	tc.t.Helper()
	var csys *System
	var err error
	if tc.dirs[p] != "" {
		csys, err = OpenDurable(tc.world, Durability{Dir: tc.dirs[p]})
		if err != nil {
			tc.t.Fatalf("cell %d: OpenDurable: %v", p, err)
		}
	} else {
		csys = NewSystem(tc.world)
	}
	cc := &CellConfig{Index: p, Cells: tc.man.Cells, ManifestHash: tc.man.LayoutHash, Layout: tc.lay}
	if err := cc.Validate(); err != nil {
		tc.t.Fatal(err)
	}
	srv := NewServer(csys, ServerConfig{Cell: cc})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		tc.t.Fatalf("cell %d: listen %s: %v", p, addr, err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch tc.stall[p].Load() {
		case stallSilent:
			// The server watches for the peer's close once the body is read.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		case stallTrickle:
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, r)
			w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
			w.WriteHeader(rec.Code)
			for _, b := range rec.Body.Bytes() {
				_, _ = w.Write([]byte{b})
				w.(http.Flusher).Flush()
				select {
				case <-r.Context().Done():
					return
				case <-time.After(stallTimeout / 4):
				}
			}
			return
		}
		if h := tc.hold[p].Load(); h != nil && r.URL.Path == "/v1/ingest" {
			<-*h
		}
		if mode := tc.cut[p].Load(); mode != 0 && r.URL.Path == "/v1/ingest" {
			if mode == cutAfter {
				srv.ServeHTTP(httptest.NewRecorder(), r)
			}
			if nc, _, err := w.(http.Hijacker).Hijack(); err == nil {
				nc.Close()
			}
			return
		}
		if r.URL.Path == "/v1/cell" {
			tc.cellCalls.Add(1)
		}
		if op := tc.refuse[p].Load(); r.URL.Path == "/v1/cell" && op != 0 {
			body, _ := io.ReadAll(r.Body)
			if kind, payload, _, err := wire.ParseFrame(body); err == nil && kind == wire.KindScatter &&
				len(payload) > 0 && int32(payload[0]) == op && tc.refuse[p].CompareAndSwap(op, 0) {
				w.Header().Set("Content-Type", wire.ContentType)
				w.WriteHeader(http.StatusBadRequest)
				_, _ = w.Write(wire.MarshalError(http.StatusBadRequest, "scatter refused by the test"))
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		if f := tc.forge[p].Load(); r.URL.Path == "/v1/cell" && f != nil {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			kind, payload, _, err := wire.ParseFrame(body)
			if err == nil && kind == wire.KindScatter && len(payload) > 0 && payload[0] == wire.OpStaticSteps && tc.forge[p].CompareAndSwap(f, nil) {
				d := wire.GetDecoder()
				sf, err := d.DecodeScatter(payload)
				wire.PutDecoder(d)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, r)
				_, reply, _, rerr := wire.ParseFrame(rec.Body.Bytes())
				pf, derr := wire.DecodePartial(reply)
				if err != nil || rerr != nil || derr != nil || rec.Code != http.StatusOK {
					tc.t.Errorf("cell %d: the static scatter to forge failed: %v, HTTP %d (%v, %v)", p, err, rec.Code, rerr, derr)
				}
				pf.Events = (*f)(pf.Events, sf.T1, sf.T2)
				var enc wire.Encoder
				out := enc.EncodePartial(pf)
				w.Header().Set("Content-Type", wire.ContentType)
				w.Header().Set("Content-Length", fmt.Sprint(len(out)))
				_, _ = w.Write(out)
				return
			}
		}
		srv.ServeHTTP(w, r)
	})}
	go func() { _ = hs.Serve(ln) }()
	tc.addrs[p] = ln.Addr().String()
	tc.cells[p], tc.srvs[p], tc.https[p] = csys, srv, hs
}

// The two ways a stalled cell answers, and the per-attempt timeout of
// the router the stall tests dial.
const (
	stallSilent  = 1 // reads the request, never answers
	stallTrickle = 2 // answers in full, a byte every stallTimeout/4
	stallTimeout = 100 * time.Millisecond
)

// killCell crashes cell p: the listener closes, in-flight connections
// die, nothing drains and nothing checkpoints.
func (tc *testCluster) killCell(p int) {
	tc.t.Helper()
	if err := tc.https[p].Close(); err != nil {
		tc.t.Fatal(err)
	}
	tc.https[p], tc.srvs[p] = nil, nil
}

// restartCell reboots a crashed durable cell on its old address and
// re-handshakes the router.
func (tc *testCluster) restartCell(p int) {
	tc.t.Helper()
	tc.startCell(p, tc.addrs[p])
	tc.rset.Probe()
	if !tc.rset.CellAlive(p) {
		tc.t.Fatalf("cell %d still dead after restart + probe", p)
	}
}

// newClusterPair boots a cluster and a single-process reference over
// the same world, both ingesting the same seeded workload through
// their normal paths.
func newClusterPair(t *testing.T, cells int) (ref *System, tc *testCluster, wl *Workload) {
	t.Helper()
	tc = bootTestCluster(t, cells, false)
	ref = NewSystem(tc.world)
	wl, err := ref.GenerateWorkload(MobilityOpts{
		Objects: 80, Horizon: 20000, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 300, LeaveProb: 0.5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Ingest(wl); err != nil {
		t.Fatal(err)
	}
	if err := tc.sys.Ingest(wl); err != nil {
		t.Fatal(err)
	}
	return ref, tc, wl
}

// TestClusterBitIdenticalExact: the router's scatter-gathered answers
// equal single-process answers bit for bit at 2 and 4 cells, for rects
// straddling one, several, and all cells.
func TestClusterBitIdenticalExact(t *testing.T) {
	for _, cells := range []int{2, 4} {
		ref, tc, wl := newClusterPair(t, cells)
		if got, want := tc.sys.NumEvents(), ref.NumEvents(); got != want {
			t.Fatalf("cells=%d: router sees %d events, reference %d", cells, got, want)
		}
		if got := tc.sys.NumPartitions(); got != cells {
			t.Fatalf("NumPartitions = %d, want %d", got, cells)
		}
		rects := straddleRects(t, tc.sys, cells)
		assertIdenticalResponses(t, ref, tc.sys, rects, wl.Horizon)
	}
}

// TestClusterBitIdenticalSampled: with identical sensor placement the
// sampled lower/upper bounds survive the network unchanged.
func TestClusterBitIdenticalSampled(t *testing.T) {
	ref, tc, wl := newClusterPair(t, 4)
	if err := ref.PlaceSensors(PlacementQuadTree, 25, 9); err != nil {
		t.Fatal(err)
	}
	if err := tc.sys.PlaceSensors(PlacementQuadTree, 25, 9); err != nil {
		t.Fatal(err)
	}
	rects := straddleRects(t, tc.sys, 4)
	assertIdenticalResponses(t, ref, tc.sys, rects, wl.Horizon)
}

// TestClusterBitIdenticalDegraded: an identical seeded fault plan
// (sensor crashes, drops, retries) produces identical degraded answers
// through the router — the approximation machinery composes with the
// network transport.
func TestClusterBitIdenticalDegraded(t *testing.T) {
	ref, tc, wl := newClusterPair(t, 4)
	for _, sys := range []*System{ref, tc.sys} {
		if err := sys.PlaceSensors(PlacementQuadTree, 30, 11); err != nil {
			t.Fatal(err)
		}
		if err := sys.ApplyFaults(FaultSpec{Seed: 17, SensorCrash: 0.1, DropProb: 0.1, MaxRetries: 3}); err != nil {
			t.Fatal(err)
		}
	}
	rects := straddleRects(t, tc.sys, 4)
	assertIdenticalResponses(t, ref, tc.sys, rects, wl.Horizon)
	degraded := false
	for _, rect := range rects {
		resp, err := tc.sys.Query(Query{Rect: rect, T1: wl.Horizon * 0.3, T2: wl.Horizon * 0.7, Kind: Transient, Bound: Upper})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Degradation != nil {
			degraded = true
		}
	}
	if !degraded {
		t.Error("fault plan degraded no query; scenario vacuous")
	}
}

// TestClusterStaticTieAcrossCells is the constructed tie of DESIGN.md §6
// through real cells: one object leaves a one-junction region over a
// road of one cell at the tick another enters over a road of a second
// cell. Each cell answers the step function of its own road; the router
// sums them, the instant cancels, and the static count is the occupancy
// the region held throughout — the single-process answer.
func TestClusterStaticTieAcrossCells(t *testing.T) {
	for _, cells := range []int{2, 4} {
		tc := bootTestCluster(t, cells, false)
		ref := NewSystem(tc.world)
		var j NodeID
		var a, b EdgeID
		found := false
		for n := 0; n < tc.world.NumJunctions() && !found; n++ {
			inc := tc.world.Star.Incident(NodeID(n))
			for _, e := range inc[1:] {
				if tc.lay.OwnerOfRoad(e) != tc.lay.OwnerOfRoad(inc[0]) {
					j, a, b, found = NodeID(n), inc[0], e, true
					break
				}
			}
		}
		if !found {
			t.Fatalf("cells=%d: no junction straddles two cells", cells)
		}
		outside := func(road EdgeID) NodeID { return tc.world.Star.Edge(road).Other(j) }
		batch := []Event{
			MoveEvent(a, outside(a), 10),
			MoveEvent(a, j, 20),
			MoveEvent(b, outside(b), 20),
		}
		for _, sys := range []*System{ref, tc.sys} {
			if err := sys.RecordBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		at := tc.world.Star.Point(j)
		q := Query{Rect: Rect{Min: Point{X: at.X - 1, Y: at.Y - 1}, Max: Point{X: at.X + 1, Y: at.Y + 1}}, T1: 15, T2: 25, Kind: Static}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if want.RegionFaces != 1 || want.Count != 1 {
			t.Fatalf("cells=%d: reference answers %v over %d faces, want 1 over the one junction", cells, want.Count, want.RegionFaces)
		}
		if got.Count != 1 || got.Degradation != nil {
			t.Errorf("cells=%d: routed static count %v (degradation %v), want 1 exact", cells, got.Count, got.Degradation)
		}
	}
}

// TestClusterRefusedScatterKeepsCellAlive: a cell that answers one
// scatter with a definitive 400 — what a router newer than its cell
// gets for an op the cell does not know — left a hole in that answer,
// so that answer is degraded by the cell's width; but the cell answered,
// so it stays alive, and the next query is exact without any probe.
func TestClusterRefusedScatterKeepsCellAlive(t *testing.T) {
	ref, tc, wl := newClusterPair(t, 2)
	const refusing = 1
	// A static query's one scatter is refused, then a snapshot's.
	for _, c := range []struct {
		name string
		op   byte
		kind Kind
	}{
		{"static steps", wire.OpStaticSteps, Static},
		{"count cuts", wire.OpCountCuts, Snapshot},
	} {
		// Nearly the whole world: a perimeter with cut roads and gateways
		// of both cells.
		q := Query{Rect: centered(tc.sys, 0.9), T1: wl.Horizon * 0.3, T2: wl.Horizon * 0.7, Kind: c.kind}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		tc.refuse[refusing].Store(int32(c.op))
		got, err := tc.sys.Query(q)
		if err != nil {
			t.Fatalf("%s: query with a refusing cell: %v", c.name, err)
		}
		if tc.refuse[refusing].Load() != 0 {
			t.Fatalf("%s: the query sent cell %d no such scatter", c.name, refusing)
		}
		d := got.Degradation
		if d == nil {
			t.Fatalf("%s: answer %v not degraded although cell %d refused its share", c.name, got.Count, refusing)
		}
		if width := float64(tc.cells[refusing].NumEvents()); d.FailedNodes != 1 || d.Upper-got.Count != width || got.Count-d.Lower != width {
			t.Errorf("%s: degradation %+v around %v, want one failed cell and its width %v", c.name, *d, got.Count, width)
		}
		if d.Lower > want.Count || d.Upper < want.Count {
			t.Errorf("%s: interval [%v, %v] excludes the true count %v", c.name, d.Lower, d.Upper, want.Count)
		}
		for p := range tc.cells {
			if !tc.rset.CellAlive(p) {
				t.Errorf("%s: cell %d marked dead by a 400", c.name, p)
			}
		}
		again, err := tc.sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if again.Degradation != nil || again.Count != want.Count {
			t.Errorf("%s: query after the refusal: count %v degradation %v, want exact %v", c.name, again.Count, again.Degradation, want.Count)
		}
	}
}

// stepForgery rewrites the step function of a cell's static reply over
// the window (t1, t2].
type stepForgery func(steps []core.SignedEvent, t1, t2 float64) []core.SignedEvent

// TestClusterRefusesForgedSteps: a static reply is a step function over
// the window the router asked for, strictly increasing, no zero delta.
// A cell that answers a step at or before t1, one past t2, a zero delta
// or a repeated instant has broken the protocol: the router marks it
// dead and widens the answer by its width around the reference — never
// sums the forged steps into a narrow answer. A probe revives the cell,
// and the next answer is exact.
func TestClusterRefusesForgedSteps(t *testing.T) {
	ref, tc, wl := newClusterPair(t, 2)
	const forger = 1
	q := Query{Rect: centered(tc.sys, 0.9), T1: wl.Horizon * 0.3, T2: wl.Horizon * 0.7, Kind: Static}
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		forge stepForgery
	}{
		// Deep enough to pull the minimum down if it were summed.
		{"before the window", func(s []core.SignedEvent, t1, _ float64) []core.SignedEvent {
			return append([]core.SignedEvent{{T: t1, Delta: -1000}}, s...)
		}},
		{"past the window", func(s []core.SignedEvent, _, t2 float64) []core.SignedEvent {
			return append(s, core.SignedEvent{T: t2 + 1, Delta: -1000})
		}},
		{"zero delta", func(s []core.SignedEvent, _, _ float64) []core.SignedEvent {
			s[len(s)/2].Delta = 0
			return s
		}},
		{"repeated instant", func(s []core.SignedEvent, _, _ float64) []core.SignedEvent {
			return append(s, s[len(s)-1])
		}},
	} {
		f := stepForgery(func(s []core.SignedEvent, t1, t2 float64) []core.SignedEvent {
			if len(s) == 0 {
				t.Errorf("%s: cell %d answered no steps to forge", c.name, forger)
				return s
			}
			return c.forge(s, t1, t2)
		})
		tc.forge[forger].Store(&f)
		got, err := tc.sys.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if tc.forge[forger].Load() != nil {
			t.Fatalf("%s: the query sent cell %d no static scatter", c.name, forger)
		}
		if tc.rset.CellAlive(forger) {
			t.Errorf("%s: cell %d still alive after a forged reply", c.name, forger)
		}
		d := got.Degradation
		if d == nil {
			t.Fatalf("%s: answer %v not degraded (reference %v)", c.name, got.Count, want.Count)
		}
		if width := float64(tc.cells[forger].NumEvents()); d.FailedNodes != 1 || d.Upper-got.Count != width || got.Count-d.Lower != width {
			t.Errorf("%s: degradation %+v around %v, want one failed cell and its width %v", c.name, *d, got.Count, width)
		}
		if d.Lower > want.Count || d.Upper < want.Count {
			t.Errorf("%s: interval [%v, %v] excludes the true count %v", c.name, d.Lower, d.Upper, want.Count)
		}
		tc.rset.Probe()
		again, err := tc.sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !tc.rset.CellAlive(forger) || again.Degradation != nil || again.Count != want.Count {
			t.Errorf("%s: after a probe: alive %v, count %v, degradation %v; want exact %v", c.name, tc.rset.CellAlive(forger), again.Count, again.Degradation, want.Count)
		}
	}
}

// TestClusterRouterLearnsGatewaysFromRouting: the router keeps every
// cell's world-junction set itself — HelloAck's set ∪ the gateways of
// every batch it routed — and never asks for it. An Enter at a junction
// no cell has seen, sent through the router, is counted by the very next
// routed query of every kind, == the single-store reference, for exactly
// one exchange per cell owning a piece of the perimeter; a second router
// that only ever handshaked learns the same junction from HelloAck, also
// across a restart of the owning cell; and when the owning cell refuses
// or is dead the answer is widened around the reference, never narrow.
func TestClusterRouterLearnsGatewaysFromRouting(t *testing.T) {
	tc := bootTestCluster(t, 2, true)
	ref := NewSystem(tc.world)
	record := func(batch []Event) {
		t.Helper()
		for _, sys := range []*System{ref, tc.sys} {
			if err := sys.RecordBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, b := range durableBatches(tc.world, 30, 6, 0, 35) {
		record(b)
	}
	const horizon = 30 * 6 * 3.0
	// Interior junctions owned by cell 1: the workload only ever enters
	// and leaves at the outer-face gateways, so no cell has seen a world
	// event at any of them.
	outer := map[NodeID]bool{}
	for _, g := range tc.world.Gateways {
		outer[g] = true
	}
	var unseen []NodeID
	for j, own := range tc.lay.CellOfJunction {
		if own == 1 && !outer[NodeID(j)] {
			unseen = append(unseen, NodeID(j))
		}
	}
	if len(unseen) < 3 {
		t.Fatalf("cell 1 owns %d interior junctions, want 3", len(unseen))
	}
	// around is the rect holding junction j alone, perimeterCells the
	// cells owning a piece of that region's perimeter once j has carried a
	// world event: the owners of its roads and j's own.
	around := func(j NodeID) Rect {
		p := tc.world.Star.Point(j)
		rect := Rect{Min: Point{X: p.X - 1, Y: p.Y - 1}, Max: Point{X: p.X + 1, Y: p.Y + 1}}
		if js := tc.world.JunctionsIn(rect); len(js) != 1 || js[0] != j {
			t.Fatalf("rect around junction %d holds %v", j, js)
		}
		return rect
	}
	perimeterCells := func(j NodeID) int64 {
		owners := map[int]bool{tc.lay.OwnerOfJunction(j): true}
		for _, e := range tc.world.Star.Incident(j) {
			owners[tc.lay.OwnerOfRoad(e)] = true
		}
		return int64(len(owners))
	}
	kinds := []Kind{Snapshot, Static, Transient}
	query := func(sys *System, j NodeID, kind Kind) *Response {
		t.Helper()
		// Transient from before the Enter, the other two after it.
		q := Query{Rect: around(j), T1: horizon + 2, T2: horizon + 3, Kind: kind}
		if kind == Transient {
			q.T1 = horizon
		}
		resp, err := sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	exact := func(sys *System, j NodeID, what string) {
		t.Helper()
		for _, kind := range kinds {
			want := query(ref, j, kind)
			before := tc.cellCalls.Load()
			got := query(sys, j, kind)
			if got.Count != want.Count || got.Degradation != nil {
				t.Errorf("%s, %v around junction %d: routed count %v (degradation %v), reference %v", what, kind, j, got.Count, got.Degradation, want.Count)
			}
			if calls := tc.cellCalls.Load() - before; calls != perimeterCells(j) {
				t.Errorf("%s, %v around junction %d: %d exchanges with the cells, want %d: one per cell of the perimeter", what, kind, j, calls, perimeterCells(j))
			}
		}
		if n := query(ref, j, Transient).Count; n != 1 {
			t.Fatalf("the reference counts %v entries at junction %d since the horizon, want the one Enter", n, j)
		}
	}

	// Routed: the next query on every kind, no extra exchange.
	record([]Event{EnterEvent(unseen[0], horizon+1)})
	exact(tc.sys, unseen[0], "routed")

	// HelloAck: a router that routed nothing sees the junction too.
	dial := func() *System {
		t.Helper()
		rs, err := cluster.Dial(tc.man, tc.addrs, cluster.Options{Timeout: 5 * time.Second, Attempts: 2, Backoff: time.Millisecond, HealthInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		sys := NewClusterSystem(rs)
		t.Cleanup(func() { sys.Close() })
		return sys
	}
	exact(dial(), unseen[0], "second router")

	// HelloAck ∪ routed across a restart of the owning cell: what the
	// router learned by routing survives the handshake, and what the cell
	// recovered from its WAL is in the handshake a fresh router reads.
	record([]Event{EnterEvent(unseen[1], horizon+1)})
	if err := tc.cells[1].SyncWAL(); err != nil {
		t.Fatal(err)
	}
	tc.killCell(1)
	tc.restartCell(1)
	exact(tc.sys, unseen[1], "after restart")
	exact(dial(), unseen[1], "second router after restart")

	// The owning cell refuses its share, then is dead: widened around the
	// reference both times.
	record([]Event{EnterEvent(unseen[2], horizon+1)})
	widened := func(what string) {
		t.Helper()
		want, got := query(ref, unseen[2], Snapshot), query(tc.sys, unseen[2], Snapshot)
		if d := got.Degradation; d == nil || d.Lower > want.Count || d.Upper < want.Count || d.Lower == d.Upper {
			t.Errorf("%s: routed answer %v with degradation %+v, want an interval around the reference %v", what, got.Count, d, want.Count)
		}
	}
	tc.refuse[1].Store(int32(wire.OpCountCuts))
	widened("owning cell refuses")
	if tc.refuse[1].Load() != 0 {
		t.Fatal("the query sent the owning cell no scatter")
	}
	exact(tc.sys, unseen[2], "after the refusal")
	tc.killCell(1)
	widened("owning cell dead")
}

// TestClusterCellRefusesWildScatterIDs: scatter frames come off the
// network, so a cell bounds-checks every road and junction they name
// before indexing anything — for the static op exactly as for the
// others — and answers 400, never a panic.
func TestClusterCellRefusesWildScatterIDs(t *testing.T) {
	tc := bootTestCluster(t, 2, false)
	road0 := tc.world.Star.Edge(0)
	// notOn0 is a junction in range that road 0 does not touch.
	var notOn0 NodeID
	for notOn0 == road0.U || notOn0 == road0.V {
		notOn0++
	}
	// mine and theirs are junctions cell 0 does and does not own.
	mine, theirs := NodeID(-1), NodeID(-1)
	for j, own := range tc.lay.CellOfJunction {
		if own == 0 && mine < 0 {
			mine = NodeID(j)
		}
		if own != 0 && theirs < 0 {
			theirs = NodeID(j)
		}
	}
	var enc wire.Encoder
	post := func(f wire.ScatterFrame) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		tc.srvs[0].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cell", bytes.NewReader(enc.EncodeScatter(f))))
		return rec
	}
	for _, f := range []wire.ScatterFrame{
		{Op: wire.OpCountCuts, Cuts: []core.CutRoad{{Road: 1 << 30, Inside: 0}}, T1: 1},
		{Op: wire.OpStaticSteps, Cuts: []core.CutRoad{{Road: 1 << 30, Inside: 0}}, T1: 1, T2: 2},
		// World-edge cuts: past the last tracked edge; an inside that is not
		// the edge's junction; ★v_ext as the inside; and a well-formed cut
		// of a junction the other cell owns (a misroute).
		{Op: wire.OpStaticSteps, Cuts: []core.CutRoad{{Road: EdgeID(tc.world.NumTrackedEdges()), Inside: 0}}, T1: 1, T2: 2},
		{Op: wire.OpCountCuts, Cuts: []core.CutRoad{{Road: tc.world.WorldEdge(mine), Inside: mine + 1}}, T1: 1},
		{Op: wire.OpCutFlow, Cuts: []core.CutRoad{{Road: tc.world.WorldEdge(mine), Inside: tc.world.Ext()}}, T1: 1, T2: 2},
		{Op: wire.OpStaticSteps, Cuts: []core.CutRoad{{Road: tc.world.WorldEdge(theirs), Inside: theirs}}, T1: 1, T2: 2},
		{Op: wire.OpRoadCrossings, Road: tc.world.WorldEdge(theirs), Toward: theirs, T1: 1},
		// In range, but not an endpoint: the kernels would read the cut as
		// "inside = U" and answer a wrong-signed share with a 200.
		{Op: wire.OpCountCuts, Cuts: []core.CutRoad{{Road: 0, Inside: notOn0}}, T1: 1},
		{Op: wire.OpCutFlow, Cuts: []core.CutRoad{{Road: 0, Inside: road0.U}, {Road: 0, Inside: 1 << 30}}, T1: 1, T2: 2},
		{Op: wire.OpStaticSteps, Cuts: []core.CutRoad{{Road: 0, Inside: notOn0}}, T1: 1, T2: 2},
		{Op: wire.OpRoadCrossings, Road: 0, Toward: notOn0, T1: 1},
	} {
		if rec := post(f); rec.Code != http.StatusBadRequest {
			t.Errorf("op %d with a wild id: status %d, want 400", f.Op, rec.Code)
		}
	}
	rec := post(wire.ScatterFrame{Op: wire.OpCountCuts, Cuts: []core.CutRoad{{Road: 0, Inside: notOn0}}, T1: 1})
	if want := fmt.Sprintf("cut road 0: junction %d is not an endpoint", notOn0); !strings.Contains(rec.Body.String(), want) {
		t.Errorf("refusal %q does not say %q", rec.Body.String(), want)
	}
	// The same ops with real endpoints of road 0 are served, and so is
	// the world edge of a junction this cell owns — as a cut with the
	// junction inside, and as a prefix count toward either end.
	for _, f := range []wire.ScatterFrame{
		{Op: wire.OpStaticSteps, Cuts: []core.CutRoad{{Road: 0, Inside: road0.U}}, T1: 1, T2: 2},
		{Op: wire.OpCountCuts, Cuts: []core.CutRoad{{Road: 0, Inside: road0.V}}, T1: 1},
		{Op: wire.OpRoadCrossings, Road: 0, Toward: road0.V, T1: 1},
		{Op: wire.OpCountCuts, Cuts: []core.CutRoad{{Road: 0, Inside: road0.V}, {Road: tc.world.WorldEdge(mine), Inside: mine}}, T1: 1},
		{Op: wire.OpRoadCrossings, Road: tc.world.WorldEdge(mine), Toward: mine, T1: 1},
		{Op: wire.OpRoadCrossings, Road: tc.world.WorldEdge(mine), Toward: tc.world.Ext(), T1: 1},
	} {
		if rec := post(f); rec.Code != http.StatusOK {
			t.Fatalf("well-formed op %d: status %d", f.Op, rec.Code)
		}
	}
}

// TestClusterCellCrashRecovery: a durable cell crashes (no drain, no
// final checkpoint) and reboots from its own WAL on the old address;
// after one probe the router answers bit-identically again, and keeps
// ingesting across the whole cluster.
func TestClusterCellCrashRecovery(t *testing.T) {
	tc := bootTestCluster(t, 2, true)
	ref := NewSystem(tc.world)
	batches := durableBatches(tc.world, 30, 6, 0, 33)
	for _, b := range batches {
		if err := tc.sys.RecordBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := ref.RecordBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	horizon := 30 * 6 * 3.0
	// The crash must not be allowed to eat the WAL tail: sync like an
	// operator would before pulling the plug.
	if err := tc.cells[1].SyncWAL(); err != nil {
		t.Fatal(err)
	}
	// Crash: stop serving without draining or closing the system — the
	// WAL directory is all the restart gets.
	tc.killCell(1)

	tc.restartCell(1)
	if got, want := tc.sys.NumEvents(), ref.NumEvents(); got != want {
		t.Fatalf("router sees %d events after recovery, want %d", got, want)
	}
	assertSameAnswers(t, ref, tc.sys, horizon)

	// The recovered topology keeps ingesting and stays bit-identical.
	more := durableBatches(tc.world, 3, 6, horizon+1, 44)
	for _, b := range more {
		if err := tc.sys.RecordBatch(b); err != nil {
			t.Fatalf("post-recovery RecordBatch: %v", err)
		}
		if err := ref.RecordBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	assertSameAnswers(t, ref, tc.sys, horizon+60)
}

// liveOnlyRect finds a rect whose region — junctions and both
// endpoints of every possible cut road — is owned entirely by cells
// other than dead. Queries over it must stay exact after the kill.
func liveOnlyRect(tc *testCluster, dead int) (Rect, bool) {
	b := tc.sys.Bounds()
	for _, frac := range []float64{0.35, 0.25, 0.18} {
		for _, corner := range []Rect{
			{Min: b.Min, Max: Point{X: b.Min.X + b.Width()*frac, Y: b.Min.Y + b.Height()*frac}},
			{Min: Point{X: b.Max.X - b.Width()*frac, Y: b.Min.Y}, Max: Point{X: b.Max.X, Y: b.Min.Y + b.Height()*frac}},
			{Min: Point{X: b.Min.X, Y: b.Max.Y - b.Height()*frac}, Max: Point{X: b.Min.X + b.Width()*frac, Y: b.Max.Y}},
			{Min: Point{X: b.Max.X - b.Width()*frac, Y: b.Max.Y - b.Height()*frac}, Max: b.Max},
		} {
			// Expand by two grid spacings so the check covers the outside
			// endpoints of perimeter roads too.
			pad := 100.0
			grown := Rect{
				Min: Point{X: corner.Min.X - pad, Y: corner.Min.Y - pad},
				Max: Point{X: corner.Max.X + pad, Y: corner.Max.Y + pad},
			}
			js := tc.world.JunctionsIn(grown)
			if len(js) == 0 {
				continue
			}
			ok := true
			for _, j := range js {
				if tc.lay.OwnerOfJunction(j) == dead {
					ok = false
					break
				}
			}
			if ok {
				return corner, true
			}
		}
	}
	return Rect{}, false
}

// TestClusterDegradesOnCellDeath: killing one cell mid-run never turns
// a query into an error — affected answers carry a sound widened
// [Lower, Upper] interval around the true count, regions owned
// entirely by live cells stay exact, and ingest routed at the dead
// cell refuses with ErrClusterUnavailable (503 through the serving
// layer). Run under -race: queries race the death and the health
// accounting.
func TestClusterDegradesOnCellDeath(t *testing.T) {
	ref, tc, wl := newClusterPair(t, 4)
	const dead = 3
	rects := straddleRects(t, tc.sys, 4)
	queries := make([]Query, len(rects))
	truth := make([]float64, len(rects))
	for i, rect := range rects {
		queries[i] = Query{Rect: rect, T1: wl.Horizon * 0.3, T2: wl.Horizon * 0.7, Kind: Kind(i % 3)}
		resp, err := ref.Query(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		truth[i] = resp.Count
	}

	// Concurrent queries race the kill; every answer must be exact or a
	// sound interval — never an error, never silently narrow.
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 30; it++ {
				i := (g + it) % len(queries)
				resp, err := tc.sys.Query(queries[i])
				if err != nil {
					errCh <- err
					return
				}
				if resp.Degradation == nil {
					if resp.Count != truth[i] {
						errCh <- errors.New("undegraded answer differs from reference")
						return
					}
					continue
				}
				d := resp.Degradation
				if d.Lower > truth[i] || d.Upper < truth[i] {
					errCh <- errors.New("degraded interval does not contain the true count")
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	tc.killCell(dead)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("query during cell death: %v", err)
	}

	// Steady state after the death: a whole-world query must degrade —
	// and soundly so.
	resp, err := tc.sys.Query(queries[0])
	if err != nil {
		t.Fatalf("query with dead cell: %v", err)
	}
	if resp.Degradation == nil {
		t.Fatal("whole-world query not degraded with a dead cell")
	}
	if d := resp.Degradation; d.Lower > truth[0] || d.Upper < truth[0] {
		t.Fatalf("degraded interval [%v,%v] excludes true count %v", d.Lower, d.Upper, truth[0])
	}
	if resp.Degradation.FailedNodes == 0 {
		t.Error("degradation reports no failed cells")
	}

	// A region owned entirely by live cells stays exact.
	if rect, ok := liveOnlyRect(tc, dead); ok {
		q := Query{Rect: rect, T1: wl.Horizon * 0.3, T2: wl.Horizon * 0.7, Kind: Snapshot}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Degradation != nil {
			t.Errorf("live-cell-only region degraded: %+v", *got.Degradation)
		}
		if got.Count != want.Count {
			t.Errorf("live-cell-only region count %v != reference %v", got.Count, want.Count)
		}
	} else {
		t.Log("no corner rect avoids the dead cell; exactness subtest skipped")
	}

	// Ingest routed at the dead cell refuses with the sentinel...
	deadEvent := deadCellEvent(t, tc, dead, wl.Horizon)
	err = tc.sys.RecordBatch([]Event{deadEvent})
	if !errors.Is(err, ErrClusterUnavailable) {
		t.Fatalf("ingest to dead cell: err %v, want ErrClusterUnavailable", err)
	}
	// A batch straddling a live cell and the dead one fails in phase 1,
	// in the same words, with nothing applied on the live cell.
	live := roadOwnedBy(t, tc.lay, 0)
	held := tc.cells[0].NumEvents()
	err = tc.sys.RecordBatch([]Event{MoveEvent(live, tc.world.Star.Edge(live).U, wl.Horizon+5), deadEvent})
	if want := fmt.Sprintf("cell %d is down", dead); !errors.Is(err, ErrClusterUnavailable) || !strings.Contains(err.Error(), want) {
		t.Fatalf("cross-cell ingest touching the dead cell: err %v, want ErrClusterUnavailable naming %q", err, want)
	}
	if got := tc.cells[0].NumEvents(); got != held {
		t.Fatalf("the live cell applied %d events of a refused batch", got-held)
	}
	// ...and the serving layer maps that to 503, not 400.
	srv := NewServer(tc.sys, ServerConfig{})
	body, _ := json.Marshal(IngestRequest{Events: []IngestEvent{{
		Kind: "move", T: deadEvent.T + 1, Road: int(deadEvent.Road), From: int(deadEvent.From),
	}}})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest to dead cell over HTTP: %d, want 503", rec.Code)
	}
	srv.Drain()
}

// deadCellEvent builds a valid move event on a road owned by the dead
// cell, timestamped past everything ingested so far.
func deadCellEvent(t *testing.T, tc *testCluster, dead int, after float64) Event {
	t.Helper()
	for road := 0; road < tc.world.NumRoads(); road++ {
		if tc.lay.OwnerOfRoad(EdgeID(road)) == dead {
			e := tc.world.Star.Edge(EdgeID(road))
			return MoveEvent(EdgeID(road), e.U, after+10)
		}
	}
	t.Fatalf("no road owned by cell %d", dead)
	return Event{}
}

// TestClusterServerReadyz: /readyz reflects SetReady and draining —
// the signal a router's health loop and an orchestrator's readiness
// probe both consume.
func TestClusterServerReadyz(t *testing.T) {
	sys, _ := newTestSystem(t)
	srv := NewServer(sys, ServerConfig{})
	get := func(path string) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if c := get("/readyz"); c != http.StatusOK {
		t.Fatalf("fresh server readyz: %d, want 200", c)
	}
	if c := get("/healthz"); c != http.StatusOK {
		t.Fatalf("fresh server healthz: %d, want 200", c)
	}
	srv.SetReady(false)
	if c := get("/readyz"); c != http.StatusServiceUnavailable {
		t.Fatalf("not-ready readyz: %d, want 503", c)
	}
	if c := get("/healthz"); c != http.StatusOK {
		t.Fatalf("not-ready healthz: %d, want 200 (liveness is not readiness)", c)
	}
	srv.SetReady(true)
	if c := get("/readyz"); c != http.StatusOK {
		t.Fatalf("re-readied readyz: %d, want 200", c)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if c := get("/readyz"); c != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d, want 503", c)
	}
}

// TestClusterRejectsMisroutedIngest: a cell must refuse a batch owned
// by another cell before anything is applied — the guard against a
// divergent router — and takes no ingest without the router's apply
// number: a client bypassing the router gets 409.
func TestClusterRejectsMisroutedIngest(t *testing.T) {
	tc := bootTestCluster(t, 2, false)
	foreign := deadCellEvent(t, tc, 1, 100)
	body, _ := json.Marshal(IngestRequest{Events: []IngestEvent{{
		Kind: "move", T: foreign.T, Road: int(foreign.Road), From: int(foreign.From),
	}}})
	for query, want := range map[string]int{"": http.StatusConflict, "?seq=7": http.StatusBadRequest} {
		resp, err := http.Post("http://"+tc.addrs[0]+"/v1/ingest"+query, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("misrouted ingest %q: %d, want %d", query, resp.StatusCode, want)
		}
	}
	if n := tc.cells[0].NumEvents(); n != 0 {
		t.Fatalf("misrouted ingest applied %d events", n)
	}
}

// rpcRetries reads the router's retry counter.
func rpcRetries() uint64 {
	obs.Enable()
	return obs.Default.Counter("cluster.rpc_retries").Value()
}

// rebootedCluster boots two durable cells with a stream ingested through
// the router — so the router keeps connections to both — then crashes
// cell 1 and reboots it on its address. No probe runs: the router still
// believes the cell alive, over connections the crash cut.
func rebootedCluster(t *testing.T) (ref *System, tc *testCluster, horizon float64) {
	t.Helper()
	tc = bootTestCluster(t, 2, true)
	ref = NewSystem(tc.world)
	for _, b := range durableBatches(tc.world, 30, 6, 0, 33) {
		if err := tc.sys.RecordBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := ref.RecordBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.cells[1].SyncWAL(); err != nil {
		t.Fatal(err)
	}
	tc.killCell(1)
	tc.startCell(1, tc.addrs[1])
	return ref, tc, 30 * 6 * 3.0
}

// TestClusterQueryAfterCellRestart: a cell restarted between two queries
// costs the second one nothing but a dial. The kept connection fails
// before any reply, which says nothing about the cell, so the exchange
// is repeated on a fresh connection: the answer is exact, the cell was
// never marked dead and no retry was spent.
func TestClusterQueryAfterCellRestart(t *testing.T) {
	ref, tc, horizon := rebootedCluster(t)
	retries, epoch := rpcRetries(), tc.rset.OutageEpoch()
	for _, kind := range []Kind{Snapshot, Transient, Static} {
		q := Query{Rect: centered(tc.sys, 0.9), T1: horizon * 0.3, T2: horizon * 0.7, Kind: kind}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count || got.Degradation != nil {
			t.Errorf("%v after the restart: count %v degradation %v, want exact %v", kind, got.Count, got.Degradation, want.Count)
		}
	}
	if !tc.rset.CellAlive(1) || tc.rset.OutageEpoch() != epoch {
		t.Errorf("restarted cell alive=%v, outage epoch %d -> %d: a cut idle connection was read as a death", tc.rset.CellAlive(1), epoch, tc.rset.OutageEpoch())
	}
	if got := rpcRetries(); got != retries {
		t.Errorf("cluster.rpc_retries moved %d -> %d over a cut idle connection", retries, got)
	}
}

// TestClusterIngestAfterCellRestart: an apply is the one exchange that
// must not be repeated on a fresh connection — the router cannot know
// the cut one delivered nothing. It fails ambiguous, once; the probe
// re-handshakes; the same batch then applies exactly once.
func TestClusterIngestAfterCellRestart(t *testing.T) {
	ref, tc, horizon := rebootedCluster(t)
	road := roadOwnedBy(t, tc.lay, 1)
	batch := []Event{
		MoveEvent(road, tc.world.Star.Edge(road).U, horizon+10),
		MoveEvent(road, tc.world.Star.Edge(road).V, horizon+20),
	}
	if err := tc.sys.RecordBatch(batch); !errors.Is(err, ErrClusterUnavailable) {
		t.Fatalf("apply over a cut connection: err %v, want ErrClusterUnavailable", err)
	}
	if tc.rset.CellAlive(1) {
		t.Fatal("cell alive after an ambiguous apply")
	}
	if err := tc.sys.RecordBatch(batch); !errors.Is(err, ErrClusterUnavailable) {
		t.Fatalf("apply to a cell not yet re-handshaken: err %v, want ErrClusterUnavailable", err)
	}
	tc.rset.Probe()
	if !tc.rset.CellAlive(1) {
		t.Fatal("cell still dead after the probe")
	}
	for _, sys := range []*System{tc.sys, ref} {
		if err := sys.RecordBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tc.sys.NumEvents(), ref.NumEvents(); got != want {
		t.Errorf("router counts %d events, reference %d", got, want)
	}
	if got, want := tc.cells[0].NumEvents()+tc.cells[1].NumEvents(), ref.NumEvents(); got != want {
		t.Errorf("cells hold %d events, reference %d: the batch did not apply exactly once", got, want)
	}
	assertSameAnswers(t, ref, tc.sys, horizon+30)
}

// TestClusterSlowCellDegrades: a cell that answers slowly rather than
// not at all — never, or a byte at a time — costs a query its attempts'
// timeouts and no more. The answer is a sound interval, the cell is dead
// afterwards, and no goroutine of the router stays behind on it.
func TestClusterSlowCellDegrades(t *testing.T) {
	ref, tc, wl := newClusterPair(t, 2)
	const slow, attempts = 1, 2
	q := Query{Rect: centered(tc.sys, 0.9), T1: wl.Horizon * 0.3, T2: wl.Horizon * 0.7, Kind: Snapshot}
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		stall int32
	}{{"silent", stallSilent}, {"trickling", stallTrickle}} {
		goroutines := runtime.NumGoroutine()
		rset, err := cluster.Dial(tc.man, tc.addrs, cluster.Options{
			Timeout: stallTimeout, Attempts: attempts, Backoff: time.Millisecond, HealthInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		sys := NewClusterSystem(rset)
		if got, err := sys.Query(q); err != nil || got.Count != want.Count || got.Degradation != nil {
			t.Fatalf("%s: query before the stall: %+v, %v", c.name, got, err)
		}
		tc.stall[slow].Store(c.stall)
		start := time.Now()
		got, err := sys.Query(q)
		elapsed := time.Since(start)
		tc.stall[slow].Store(0)
		if err != nil {
			t.Fatalf("%s: query with a slow cell: %v", c.name, err)
		}
		// Every attempt's timeout, the backoff between them, and slack
		// for a loaded machine — not a wait for the cell to finish.
		if limit := attempts*stallTimeout + time.Second; elapsed < attempts*stallTimeout || elapsed > limit {
			t.Errorf("%s: query took %v, want between %v and %v", c.name, elapsed, attempts*stallTimeout, limit)
		}
		if d := got.Degradation; d == nil || d.Lower > want.Count || d.Upper < want.Count {
			t.Errorf("%s: answer %v (degradation %+v) does not contain the true count %v", c.name, got.Count, d, want.Count)
		}
		if rset.CellAlive(slow) || !rset.CellAlive(1-slow) {
			t.Errorf("%s: slow cell alive=%v, healthy cell alive=%v", c.name, rset.CellAlive(slow), rset.CellAlive(1-slow))
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return runtime.NumGoroutine() <= goroutines },
			fmt.Sprintf("%s: the %d goroutines from before the router was dialed (%d now)", c.name, goroutines, runtime.NumGoroutine()))
	}
}
