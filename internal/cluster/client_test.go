package cluster

// The router's cell client against stub cells (DESIGN.md §16.4, §16.6):
// what a reply means — value, definitive refusal, retryable failure —
// as one executable table, and what a kept connection adds to it.

import (
	"bufio"
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

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/planar"
	"repro/internal/wire"
)

// stub is a cell that answers whatever the test says, and counts.
type stub struct {
	*httptest.Server
	requests atomic.Int64
	accepted atomic.Int64 // connections, by the server's ConnState hook
	closed   atomic.Int64
}

func newStub(t testing.TB, h http.HandlerFunc) *stub {
	t.Helper()
	s := &stub{}
	s.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		h(w, r)
	}))
	s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			s.accepted.Add(1)
		case http.StateClosed, http.StateHijacked:
			s.closed.Add(1)
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

// client dials nothing yet: connections are made by the first exchange.
func (s *stub) client(t testing.TB, opt Options) *cellClient {
	t.Helper()
	obs.Enable()
	if opt.Backoff == 0 {
		opt.Backoff = time.Millisecond
	}
	c, err := newCellClient(0, s.URL, opt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.dropIdle)
	return c
}

func (c *cellClient) numIdle() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// reply answers one frame the way the serving layer does: its content
// type and its length.
func reply(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// raw answers with exactly these bytes on the hijacked connection, then
// holds it open until the peer closes when hold is set.
func raw(w http.ResponseWriter, bytes string, hold bool) {
	nc, _, err := w.(http.Hijacker).Hijack()
	if err != nil {
		panic(err)
	}
	defer nc.Close()
	_, _ = io.WriteString(nc, bytes)
	if hold {
		_, _ = io.Copy(io.Discard, nc)
	}
}

var countCuts = wire.ScatterFrame{Op: wire.OpCountCuts, T1: 10}

func partial(value float64) []byte {
	var enc wire.Encoder
	return enc.EncodePartial(wire.PartialFrame{Op: wire.OpCountCuts, Value: value})
}

// TestCellClientTaxonomy is §16.4 as a table: each row is one way a cell
// can answer a scatter, how many requests the router spends on it, and
// what the caller is told.
func TestCellClientTaxonomy(t *testing.T) {
	const attempts = 3
	errorFrame := func(status int) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			reply(w, status, wire.MarshalError(status, "the stub says no"))
		}
	}
	unavailable := func(t *testing.T, _ wire.PartialFrame, err error) {
		if !errors.Is(err, ErrUnavailable) || Status(err) != 0 {
			t.Errorf("err %v (status %d), want ErrUnavailable", err, Status(err))
		}
	}
	value := func(want float64) func(*testing.T, wire.PartialFrame, error) {
		return func(t *testing.T, pf wire.PartialFrame, err error) {
			if err != nil || pf.Value != want {
				t.Errorf("got %v, %v; want value %v", pf.Value, err, want)
			}
		}
	}
	for _, row := range []struct {
		name     string
		cell     http.HandlerFunc
		requests int64
		check    func(*testing.T, wire.PartialFrame, error)
	}{
		{"partial 200", func(w http.ResponseWriter, _ *http.Request) { reply(w, 200, partial(42)) }, 1, value(42)},
		{"error frame 400", errorFrame(400), 1, func(t *testing.T, _ wire.PartialFrame, err error) {
			if Status(err) != 400 || errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "cell 0: the stub says no") {
				t.Errorf("err %v (status %d), want the cell's definitive 400", err, Status(err))
			}
		}},
		{"error frame 429", errorFrame(429), attempts, unavailable},
		{"error frame 503", errorFrame(503), attempts, unavailable},
		{"non-wire body", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "<html>bad gateway</html>", http.StatusBadGateway)
		}, attempts, unavailable},
		{"wrong frame kind", func(w http.ResponseWriter, _ *http.Request) {
			var enc wire.Encoder
			reply(w, 200, enc.EncodeIngestResult(1))
		}, attempts, unavailable},
		{"body shorter than its length", func(w http.ResponseWriter, _ *http.Request) {
			body := partial(42)
			raw(w, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:len(body)-3]), false)
		}, attempts, unavailable},
		{"length over the frame limit", func(w http.ResponseWriter, _ *http.Request) {
			// The body never comes: a client that tried to buffer it
			// would sit out its timeout.
			raw(w, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\nSW", maxReply+1), true)
		}, attempts, func(t *testing.T, _ wire.PartialFrame, err error) {
			if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "exceeds") {
				t.Errorf("err %v, want a refused oversized reply", err)
			}
		}},
		{"chunked 200", func(w http.ResponseWriter, _ *http.Request) {
			body := partial(7)
			w.Header().Set("Content-Type", wire.ContentType)
			_, _ = w.Write(body[:5])
			w.(http.Flusher).Flush()
			_, _ = w.Write(body[5:])
		}, 1, value(7)},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := newStub(t, row.cell)
			c := s.client(t, Options{Attempts: attempts, Timeout: 5 * time.Second})
			start := time.Now()
			pf, err := c.scatter(countCuts)
			if d := time.Since(start); d > c.opt.Timeout {
				t.Errorf("took %v: some attempt waited for its timeout", d)
			}
			row.check(t, pf, err)
			if got := s.requests.Load(); got != row.requests {
				t.Errorf("cell saw %d requests, want %d", got, row.requests)
			}
			if err == nil && c.numIdle() != 1 {
				t.Errorf("%d idle connections after a clean exchange, want 1", c.numIdle())
			}
		})
	}
}

// TestCellClientConnectionClose: a reply that asks to close is honoured —
// its connection is not kept and the next exchange dials.
func TestCellClientConnectionClose(t *testing.T) {
	s := newStub(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Connection", "close")
		reply(w, 200, partial(1))
	})
	c := s.client(t, Options{})
	dials := cDials.Value()
	for i := 0; i < 3; i++ {
		if _, err := c.scatter(countCuts); err != nil {
			t.Fatal(err)
		}
		if n := c.numIdle(); n != 0 {
			t.Fatalf("exchange %d: %d connections kept past Connection: close", i, n)
		}
	}
	if got := cDials.Value() - dials; got != 3 {
		t.Errorf("%d dials for 3 exchanges a cell closed after, want 3", got)
	}
}

// TestCellClientEarlyReply: a cell that refuses a request by its head —
// answers and closes while the body is still being written — is
// classified by what it answered, not by the failed write.
func TestCellClientEarlyReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			br := bufio.NewReader(nc)
			for {
				if line, err := br.ReadString('\n'); err != nil || line == "\r\n" {
					break
				}
			}
			body := wire.MarshalError(http.StatusRequestEntityTooLarge, "frame too large")
			fmt.Fprintf(nc, "HTTP/1.1 413 Request Entity Too Large\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
				wire.ContentType, len(body), body)
			nc.Close() // with most of the request unread: the peer's write is reset
		}
	}()
	obs.Enable()
	c, err := newCellClient(0, ln.Addr().String(), Options{Backoff: time.Millisecond}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	err = c.call("/v1/cell", make([]byte, 8<<20), wire.KindPartial, func([]byte) error { return nil })
	if Status(err) != http.StatusRequestEntityTooLarge || errors.Is(err, ErrUnavailable) {
		t.Fatalf("err %v (status %d), want the cell's definitive 413", err, Status(err))
	}
	if n := accepted.Load(); n != 1 {
		t.Errorf("%d connections for a definitive refusal, want 1", n)
	}
	if n := c.numIdle(); n != 0 {
		t.Errorf("%d connections kept after the cell closed", n)
	}
}

// TestCellClientStaleConnection: the cell went away under a kept
// connection. A call notices on its first read, drops every kept
// connection and repeats itself once on a fresh one, spending no
// attempt — an apply as much as a scatter.
func TestCellClientStaleConnection(t *testing.T) {
	var enc wire.Encoder
	var hold sync.WaitGroup
	s := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/ingest" {
			reply(w, 200, enc.EncodeIngestResult(1))
			return
		}
		hold.Wait()
		reply(w, 200, partial(5))
	})
	c := s.client(t, Options{Attempts: 1})
	// keep leaves the client n kept connections, all of them cut by the
	// cell: n exchanges held in the cell at once, then let go.
	keep := func(n int) {
		t.Helper()
		hold.Add(1)
		held := s.requests.Load() + int64(n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.scatter(countCuts); err != nil {
					t.Error(err)
				}
			}()
		}
		waitFor(t, func() bool { return s.requests.Load() == held }, "the exchanges to reach the cell")
		hold.Done()
		wg.Wait()
		if got := c.numIdle(); got != n {
			t.Fatalf("%d kept connections, want %d", got, n)
		}
		s.CloseClientConnections()
	}

	keep(3)
	requests, dials, retries := s.requests.Load(), cDials.Value(), cRetries.Value()
	if pf, err := c.scatter(countCuts); err != nil || pf.Value != 5 {
		t.Fatalf("scatter over a stale connection, one attempt allowed: %v, %v", pf.Value, err)
	}
	if got := s.requests.Load() - requests; got != 1 {
		t.Errorf("cell saw %d requests, want 1", got)
	}
	if d, r := cDials.Value()-dials, cRetries.Value()-retries; d != 1 || r != 0 {
		t.Errorf("%d dials and %d retries, want 1 and 0: the other stale connections were tried", d, r)
	}
	if got := c.numIdle(); got != 1 {
		t.Errorf("%d kept connections, want the fresh one alone", got)
	}

	// An apply is repeated like any exchange: it carries its number, and a
	// cell applies a number at most once. The cut is remembered for the
	// next probe's handshake.
	c.dropIdle()
	c.cut.Store(false)
	keep(3)
	requests, dials = s.requests.Load(), cDials.Value()
	ev := []core.Event{{Kind: core.EventMove, Road: 1, From: planar.NodeID(1), T: 1}}
	if err := c.apply(1, ev); err != nil {
		t.Fatalf("apply over a stale connection: %v", err)
	}
	if got, d := s.requests.Load()-requests, cDials.Value()-dials; got != 1 || d != 1 {
		t.Errorf("cell saw %d requests over %d dials, want 1 and 1", got, d)
	}
	if got := c.numIdle(); got != 1 {
		t.Errorf("%d kept connections, want the fresh one alone", got)
	}
	if !c.cut.Load() {
		t.Error("a cut connection left no trace for the probe")
	}
}

// TestCellClientTimeoutSpendsTheAttempt: a cell that is slow on a kept
// connection is not a stale connection — the timeout is the attempt, and
// no exchange comes free with it.
func TestCellClientTimeoutSpendsTheAttempt(t *testing.T) {
	var slow atomic.Bool
	s := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		if slow.Load() {
			// The server watches for the peer's close once the body is read.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done() // the router gave up and closed
			return
		}
		reply(w, 200, partial(1))
	})
	c := s.client(t, Options{Attempts: 2, Timeout: 50 * time.Millisecond})
	if _, err := c.scatter(countCuts); err != nil {
		t.Fatal(err)
	}
	slow.Store(true)
	start := time.Now()
	_, err := c.scatter(countCuts)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err %v, want ErrUnavailable", err)
	}
	if d := time.Since(start); d < 2*c.opt.Timeout {
		t.Errorf("gave up after %v, before 2 attempts of %v", d, c.opt.Timeout)
	}
	if got := s.requests.Load(); got != 1+2 {
		t.Errorf("cell saw %d requests, want 1 + 2 attempts", got)
	}
}

// TestCellClientRefusesHTTPS: no daemon here listens with TLS, and the
// client would speak plain text to it; Dial says so by name.
func TestCellClientRefusesHTTPS(t *testing.T) {
	man, _, _, err := NewManifest(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Dial(man, []string{"https://127.0.0.1:1"}, Options{HealthInterval: -1})
	if err == nil || !strings.Contains(err.Error(), `scheme "https"`) {
		t.Fatalf("Dial(https://...) = %v, want an error naming the scheme", err)
	}
	for addr, want := range map[string][2]string{
		"10.0.0.1:8081":                {"10.0.0.1:8081", ""},
		"http://cell-0:8081/":          {"cell-0:8081", ""},
		"http://cell-0/behind/a/proxy": {"cell-0:80", "/behind/a/proxy"},
		"http://[::1]:8081/x/":         {"[::1]:8081", "/x"},
	} {
		if c, err := newCellClient(0, addr, Options{}); err != nil {
			t.Errorf("%q: %v", addr, err)
		} else if c.addr != want[0] || c.prefix != want[1] {
			t.Errorf("%q: dial %q prefix %q, want %q %q", addr, c.addr, c.prefix, want[0], want[1])
		}
	}
}

// echoCell answers an OpRoadCrossings scatter with its T1 plus id: a
// reply delivered to the wrong exchange, or from the wrong cell, shows.
func echoCell(t testing.TB, id float64) *stub {
	return newStub(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		_, payload, _, err := wire.ParseFrame(body)
		if err != nil {
			reply(w, 400, wire.MarshalError(400, err.Error()))
			return
		}
		var dec wire.Decoder
		f, err := dec.DecodeScatter(payload)
		if err != nil {
			reply(w, 400, wire.MarshalError(400, err.Error()))
			return
		}
		var enc wire.Encoder
		reply(w, 200, enc.EncodePartial(wire.PartialFrame{Op: f.Op, Value: f.T1 + id}))
	})
}

// TestCellClientConcurrentExchanges: goroutines sharing two cells' free
// lists never read each other's replies, and sequential exchanges ride
// one connection.
func TestCellClientConcurrentExchanges(t *testing.T) {
	stubs := []*stub{echoCell(t, 1e6), echoCell(t, 2e6)}
	clients := []*cellClient{stubs[0].client(t, Options{}), stubs[1].client(t, Options{})}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := (g + i) % 2
				token := float64(g*1000 + i)
				pf, err := clients[p].scatter(wire.ScatterFrame{Op: wire.OpRoadCrossings, T1: token})
				if want := token + float64(p+1)*1e6; err != nil || pf.Value != want {
					t.Errorf("goroutine %d exchange %d with cell %d: %v, %v; want %v", g, i, p, pf.Value, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for p, c := range clients {
		if n := c.numIdle(); n < 1 || n > 8 {
			t.Errorf("cell %d: %d idle connections after 8 goroutines", p, n)
		}
		if got, kept := stubs[p].accepted.Load(), int64(c.numIdle()); got > 8 {
			t.Errorf("cell %d accepted %d connections (%d kept) from 8 goroutines", p, got, kept)
		}
	}

	c := echoCell(t, 0).client(t, Options{})
	dials := cDials.Value()
	for i := 0; i < 1000; i++ {
		if pf, err := c.scatter(wire.ScatterFrame{Op: wire.OpRoadCrossings, T1: float64(i)}); err != nil || pf.Value != float64(i) {
			t.Fatalf("exchange %d: %v, %v", i, pf.Value, err)
		}
	}
	if got := cDials.Value() - dials; got != 1 {
		t.Errorf("1000 sequential exchanges dialed %d times, want 1", got)
	}
}

// TestCellClientIdleCap: a burst wider than the free list leaves
// maxIdleConns kept connections and closes the rest.
func TestCellClientIdleCap(t *testing.T) {
	const burst = maxIdleConns + 4
	var arrived sync.WaitGroup
	arrived.Add(burst)
	s := newStub(t, func(w http.ResponseWriter, _ *http.Request) {
		arrived.Done()
		arrived.Wait() // every exchange of the burst holds a connection at once
		reply(w, 200, partial(1))
	})
	c := s.client(t, Options{})
	var wg sync.WaitGroup
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.scatter(countCuts); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := c.numIdle(); n != maxIdleConns {
		t.Errorf("%d idle connections after a burst of %d, want %d", n, burst, maxIdleConns)
	}
	waitFor(t, func() bool { return s.closed.Load() == burst-maxIdleConns }, "the connections over the cap to close")
}

// waitFor polls cond until true or the deadline trips the test.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", msg)
		}
	}
}

// helloCell is the least a cell must do for Dial and Probe.
func helloCell(t testing.TB, id int) *stub {
	return newStub(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		var enc wire.Encoder
		reply(w, 200, enc.EncodeHelloAck(wire.HelloAckFrame{Cell: id}))
	})
}

// TestCellClientCloseLeavesNothing: RemoteSet.Close closes every kept
// connection — each cell sees all it accepted closed — and the process
// is back to the goroutines it had before Dial.
func TestCellClientCloseLeavesNothing(t *testing.T) {
	man, _, _, err := NewManifest(testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	stubs := []*stub{helloCell(t, 0), helloCell(t, 1)}
	before := runtime.NumGoroutine()
	rs, err := Dial(man, []string{stubs[0].URL, stubs[1].URL}, Options{HealthInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for p, s := range stubs {
		if !rs.CellAlive(p) {
			t.Fatalf("cell %d did not handshake", p)
		}
		// The health loop has probed over the kept connection.
		waitFor(t, func() bool { return s.requests.Load() >= 3 }, "a health probe")
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	for p, s := range stubs {
		if s.accepted.Load() == 0 {
			t.Fatalf("cell %d accepted no connection", p)
		}
		waitFor(t, func() bool { return s.closed.Load() == s.accepted.Load() }, "the cell to see its connections closed")
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before }, "the goroutines of Dial to exit")
}

// BenchmarkCellExchange is one scatter exchange as a query makes it —
// a perimeter-sized frame out, a count back — against in-process stub
// cells, whose share is included: alone, and as a three-cell fan on
// goroutines (partition.Set's fan).
func BenchmarkCellExchange(b *testing.B) {
	frame := benchFrame()
	clients := make([]*cellClient, 3)
	for p := range clients {
		clients[p] = benchCell(b).client(b, Options{})
	}
	b.Run("one", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := clients[0].scatter(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fan3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for _, c := range clients {
				wg.Add(1)
				go func(c *cellClient) {
					defer wg.Done()
					if _, err := c.scatter(frame); err != nil {
						b.Error(err)
					}
				}(c)
			}
			wg.Wait()
		}
	})
}

// benchFrame is a snapshot's share for one cell: ~360 bytes on the wire.
func benchFrame() wire.ScatterFrame {
	f := wire.ScatterFrame{Op: wire.OpCountCuts, T1: 86400}
	for i := 0; i < 110; i++ {
		f.Cuts = append(f.Cuts, core.CutRoad{Road: planar.EdgeID(40 * i), Inside: planar.NodeID(17 * i)})
	}
	return f
}

// benchCell reads the frame and answers a count, as a cell would.
func benchCell(t testing.TB) *stub {
	body := partial(12345)
	return newStub(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		reply(w, 200, body)
	})
}

// TestCellExchangeAllocBudget holds one scatter exchange, the stub
// server's share included, to the 37 allocations it measures plus two.
// The same body measures 97 at the parent commit, over net/http's
// client. Nine of the 37 are http.ReadResponse's, the only ones the
// client makes; the rest are the stub's net/http server.
func TestCellExchangeAllocBudget(t *testing.T) {
	const budget = 39
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		probe.Put(new(int))
		if probe.Get() == nil {
			t.Skip("sync.Pool does not retain here (race detector): the budget assumes pooled encoders come back")
		}
	}
	frame := benchFrame()
	c := benchCell(t).client(t, Options{})
	got := testing.AllocsPerRun(500, func() {
		if _, err := c.scatter(frame); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("one scatter exchange allocates %.1f times, budget %d", got, budget)
	}
}
