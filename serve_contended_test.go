package stq

// Contended benchmarks of the serving mechanisms (DESIGN.md §10.4,
// §13.3, §13.4, §14.3): C closed-loop clients against one Server over
// loopback JSON, and W library writers calling System.RecordBatch.
// Coalescing, group commit and the lock stripes only engage when
// requests overlap, so run them at -cpu 2 or more; at GOMAXPROCS=1 they
// measure one client's cost.
//
//	go test -run '^$' -bench 'ServedContended|ConcurrentRecordBatch' -cpu 2 -benchtime 3000x .
//
// Each top-level benchmark builds its 16×16 city (and, for queries, the
// preload) once; every row starts its own server or system on it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/roadnet"
)

var contendedGrid = GridOpts{NX: 16, NY: 16, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.1}

// runClients runs ops operations over the given number of closed-loop
// clients, each taking the next operation index when its last one
// returns, and reports the operations' median latency as p50_us. It
// returns the wall time of the whole run.
func runClients(b *testing.B, clients, ops int, op func(client, i int) error) time.Duration {
	var next atomic.Int64
	lat := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= ops {
					return
				}
				t0 := time.Now()
				if err := op(k, i); err != nil {
					b.Error(err)
					return
				}
				lat[k] = append(lat[k], time.Since(t0))
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	all := slices.Concat(lat...)
	if len(all) > 0 {
		slices.Sort(all)
		b.ReportMetric(float64(all[len(all)/2].Nanoseconds())/1e3, "p50_us")
	}
	return elapsed
}

// contendedServer serves sys on a loopback listener and returns its URL
// and a client keeping enough idle connections for every row's clients.
func contendedServer(b *testing.B, sys *System) (*Server, string, *http.Client, func()) {
	srv := NewServer(sys, ServerConfig{})
	ts := httptest.NewServer(srv)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	return srv, ts.URL, client, func() {
		client.CloseIdleConnections()
		ts.Close()
		if err := srv.Drain(); err != nil {
			b.Error(err)
		}
	}
}

// postOK sends one JSON body and requires a 200.
func postOK(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

// BenchmarkServedContendedQuery: C clients query one served system. A
// light query is a snapshot of a fifth of the city; a heavy one a
// whole-horizon static count over 95 % of it. In the same rows every
// client sends one identical request; in the distinct rows no two
// requests share their times (the plan cache still hits). execs/req is
// engine executions per request.
func BenchmarkServedContendedQuery(b *testing.B) {
	sys, err := NewGridCitySystem(contendedGrid, 1)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := sys.GenerateWorkload(MobilityOpts{
		Objects: 200, Horizon: 20000, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 300, LeaveProb: 0.5}, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Ingest(wl); err != nil {
		b.Fatal(err)
	}
	srv, url, client, stop := contendedServer(b, sys)
	defer stop()
	url += "/v1/query"
	hz := wl.Horizon
	for _, load := range []struct {
		name string
		body func(k int) QueryRequest
	}{
		{"light", func(k int) QueryRequest {
			r := centered(sys, 0.2)
			return QueryRequest{Rect: [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y}, T1: hz/2 + float64(k), Kind: "snapshot"}
		}},
		{"heavy", func(k int) QueryRequest {
			r := centered(sys, 0.95)
			return QueryRequest{Rect: [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y}, T2: hz - float64(k), Kind: "static"}
		}},
	} {
		for _, shape := range []struct {
			name  string
			count int
		}{{"same", 1}, {"distinct", 1024}} {
			bodies := make([][]byte, shape.count)
			for k := range bodies {
				if bodies[k], err = json.Marshal(load.body(k)); err != nil {
					b.Fatal(err)
				}
			}
			for _, c := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/c%d", load.name, shape.name, c), func(b *testing.B) {
					before := srv.Stats().QueryExecs
					elapsed := runClients(b, c, b.N, func(_, i int) error {
						return postOK(client, url, bodies[i%len(bodies)])
					})
					b.ReportMetric(float64(b.N)/elapsed.Seconds(), "q/s")
					b.ReportMetric(float64(srv.Stats().QueryExecs-before)/float64(b.N), "execs/req")
				})
			}
		}
	}
}

// BenchmarkServedContendedIngest: C clients ingest 64-event batches
// into one served 4-partition system, each on its own roads, in memory
// and durable under both fsync policies. reqs/commit is ingest requests
// per group commit.
func BenchmarkServedContendedIngest(b *testing.B) {
	w := contendedWorld(b)
	const batch = 64
	for _, mode := range []struct {
		name string
		open func(b *testing.B) (*System, error)
	}{
		{"mem", func(*testing.B) (*System, error) { return NewPartitionedSystem(w, 4) }},
		{"durable-interval", func(b *testing.B) (*System, error) {
			return OpenDurable(w, Durability{Dir: b.TempDir(), Sync: SyncInterval, Partitions: 4})
		}},
		{"durable-always", func(b *testing.B) (*System, error) {
			return OpenDurable(w, Durability{Dir: b.TempDir(), Sync: SyncAlways, Partitions: 4})
		}},
	} {
		for _, c := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/c%d", mode.name, c), func(b *testing.B) {
				sys, err := mode.open(b)
				if err != nil {
					b.Fatal(err)
				}
				defer sys.Close()
				srv, url, client, stop := contendedServer(b, sys)
				defer stop()
				url += "/v1/ingest"
				writers := newRoadWriters(w, c)
				bufs := make([][]byte, c)
				before := srv.Stats()
				elapsed := runClients(b, c, b.N, func(k, _ int) error {
					bufs[k] = writers[k].appendJSON(bufs[k][:0], batch)
					return postOK(client, url, bufs[k])
				})
				after := srv.Stats()
				b.ReportMetric(float64(b.N*batch)/elapsed.Seconds(), "events/s")
				if commits := after.GroupCommits - before.GroupCommits; commits > 0 {
					b.ReportMetric(float64(after.IngestRequests-before.IngestRequests)/float64(commits), "reqs/commit")
				}
			})
		}
	}
}

// BenchmarkConcurrentRecordBatch: W library writers call
// System.RecordBatch on one system of P partitions, each on its own
// roads, B events a batch. b.N counts events, so every row ingests about
// the same number whatever its batch size.
func BenchmarkConcurrentRecordBatch(b *testing.B) {
	w := contendedWorld(b)
	for _, parts := range []int{1, 4} {
		for _, nw := range []int{1, 2, 4} {
			for _, size := range []int{64, 512, 8192} {
				b.Run(fmt.Sprintf("p%d/w%d/b%d", parts, nw, size), func(b *testing.B) {
					sys, err := NewPartitionedSystem(w, parts)
					if err != nil {
						b.Fatal(err)
					}
					writers := newRoadWriters(w, nw)
					batches := make([][]Event, nw)
					ops := max(1, b.N/size)
					elapsed := runClients(b, nw, ops, func(k, _ int) error {
						batches[k] = writers[k].appendEvents(batches[k][:0], size)
						return sys.RecordBatch(batches[k])
					})
					b.ReportMetric(float64(ops*size)/elapsed.Seconds(), "events/s")
				})
			}
		}
	}
}

// contendedWorld builds the benchmarks' 16×16 city.
func contendedWorld(b *testing.B) *roadnet.World {
	sys, err := NewGridCitySystem(contendedGrid, 1)
	if err != nil {
		b.Fatal(err)
	}
	return sys.World()
}

// roadWriter is one client's event stream: moves over the roads it owns
// alone, one time unit apart, so no two writers share a tracking form
// and each writer's forms stay in time order.
type roadWriter struct {
	w     *roadnet.World
	roads []EdgeID
	next  int
	t     int64
}

// newRoadWriters deals the world's roads round-robin to n writers.
func newRoadWriters(w *roadnet.World, n int) []*roadWriter {
	out := make([]*roadWriter, n)
	for k := range out {
		out[k] = &roadWriter{w: w}
	}
	for r := 0; r < w.NumRoads(); r++ {
		out[r%n].roads = append(out[r%n].roads, EdgeID(r))
	}
	return out
}

// step returns the writer's next road and time.
func (rw *roadWriter) step() (EdgeID, int64) {
	road := rw.roads[rw.next%len(rw.roads)]
	rw.next++
	rw.t++
	return road, rw.t
}

func (rw *roadWriter) appendEvents(dst []Event, n int) []Event {
	for i := 0; i < n; i++ {
		road, t := rw.step()
		dst = append(dst, MoveEvent(road, rw.w.Star.Edge(road).U, float64(t)))
	}
	return dst
}

// appendJSON appends an ingest body of n moves in the canonical JSON
// dialect (DESIGN.md §13.1).
func (rw *roadWriter) appendJSON(dst []byte, n int) []byte {
	dst = append(dst, `{"events":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		road, t := rw.step()
		dst = append(dst, `{"kind":"move","t":`...)
		dst = strconv.AppendInt(dst, t, 10)
		dst = append(dst, `,"road":`...)
		dst = strconv.AppendInt(dst, int64(road), 10)
		dst = append(dst, `,"from":`...)
		dst = strconv.AppendInt(dst, int64(rw.w.Star.Edge(road).U), 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}
