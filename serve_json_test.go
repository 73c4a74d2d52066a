package stq

// The JSON request scanner (serve_json.go) against its reference, the
// encoding/json path it falls back to (DESIGN.md §13.1): whatever the
// scanner accepts, the reference accepts with an identical value; what
// it does not accept is decoded, and refused, exactly as before.

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// jsonBodySeeds are both endpoints' bodies — the fuzz target feeds every
// input to both decoders — inside the dialect, just outside it, and
// malformed.
var jsonBodySeeds = []string{
	// Canonical: what json.Marshal writes for the exported request types.
	`{"events":[{"kind":"move","t":100,"road":3,"from":4},{"kind":"enter","t":100.5,"gateway":7},{"kind":"leave","t":1e3,"gateway":7}]}`,
	`{"rect":[100,100,300,300],"t1":100,"t2":200,"kind":"transient","bound":"upper"}`,
	`{"rect":[0.5,-1.25,3e2,4E+2],"t1":0,"t2":0}`,
	// Canonical with the keys reordered and spaced out.
	"{ \"events\" : [ {\"from\":4, \"road\":3,\r\n\t\"t\":100, \"kind\":\"move\"} ] }\n",
	`{"bound":"lower","kind":"static","t2":2,"t1":1,"rect":[1,2,3,4]}`,
	// Valid JSON outside the dialect.
	`{"events":[{"kind":"m\u006fve","t":1,"road":3,"from":4}]}`,
	`{"events":[{"k\u0069nd":"move","t":1,"road":3,"from":4}]}`,
	`{"events":[{"kind":"move","t":1}]}`,
	`{"RECT":[1,2,3,4],"T1":5}`,
	`{"rect":[1,2,3,4],"t1":5,"note":{"deep":[1,{"er":null}]}}`,
	`{"events":[{"kind":"move","t":1,"road":3,"from":4,"id":"x"}]}`,
	`{"rect":[1,2,3,4],"rect":[5,6,7,8],"t1":5}`,
	`{"events":[{"kind":"move","t":1,"t":2,"road":3,"from":4}]}`,
	`{"events":[],"events":[{"kind":"enter","t":1,"gateway":2}]}`,
	`{"rect":[1,2,3,4],"t1":null,"kind":null}`,
	`{"rect":null,"t1":5}`,
	`{"events":null}`,
	`{"events":[null]}`,
	`null`,
	`{"events":[{"kind":"move","t":1,"road":1.0,"from":4}]}`,
	`{"events":[{"kind":"move","t":1,"road":1e3,"from":4}]}`,
	`{"events":[{"kind":"move","t":1,"road":01,"from":4}]}`,
	`{"events":[{"kind":"move","t":-0,"road":-0,"from":-4}]}`,
	`{"events":[{"kind":"move","t":1,"road":123456789012345678901234567890,"from":4}]}`,
	`{"events":[{"kind":"move","t":1,"road":9223372036854775807,"from":-9223372036854775808}]}`,
	`{"rect":[1,2,3,4],"t1":1e999}`,
	`{"rect":[1,2,3,4],"t1":1e-7,"t2":-1e-400}`,
	`{"rect":[1,2,3,4],"t1":12345678901234567,"t2":0.12345678901234567}`,
	`{"rect":[1,2,3,4],"t1":999999999999999,"t2":1000000000000000}`,
	`{"events":[{"kind":"warp","t":1}]}`,
	`{"events":[{"kind":"enter","gateway":1}]}`,
	`{"events":[{}]}`,
	`{"rect":[1,2,3,4],"kind":"sideways"}`,
	`{"rect":[1,2,3,4],"kind":"","bound":""}`,
	`{"rect":[1,2,3],"t1":5}`,
	`{"rect":[1,2,3,4,5],"t1":5}`,
	`{"rect":[[1,2,3,4]],"t1":5}`,
	`{"t1":5}`,
	`{"events":[]}`,
	`{}`,
	// Malformed.
	`{"events":[{"kind":"enter","t":1,"gateway":2}]}garbage`,
	`{"events":[{"kind":"enter","t":1,"gateway":2}]} {"events":[]}`,
	`{"rect":[1,2,3,4],"t1":5} 7`,
	`{"rect":[1,2,3,4,],"t1":5}`,
	`{"rect":[1,2,3,4],"t1":5,}`,
	`{"rect":[1,2,3,4],"t1":.5}`,
	`{"rect":[1,2,3,4],"t1":5.}`,
	`{"rect":[1,2,3,4],"t1":+5}`,
	`{"rect":[1,2,3,4],"t1":-}`,
	`{"rect":[1,2,3,4],"t1":1e}`,
	`{"rect":[0,0,`,
	`{"kind":"snap`,
	`{"kind":"snap\`,
	"{\"kind\":\"snap\nshot\",\"rect\":[1,2,3,4]}",
	`{"events":[{"kind":"move" "t":1}]}`,
	strings.Repeat(`{"events":[`, 40),
	strings.Repeat(`[`, 200),
	``,
	` `,
}

func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.T) != math.Float64bits(y.T) || x.Kind != y.Kind ||
			x.Road != y.Road || x.From != y.From || x.Gateway != y.Gateway {
			return false
		}
	}
	return true
}

func sameQuery(a, b Query) bool {
	af := [6]float64{a.Rect.Min.X, a.Rect.Min.Y, a.Rect.Max.X, a.Rect.Max.Y, a.T1, a.T2}
	bf := [6]float64{b.Rect.Min.X, b.Rect.Min.Y, b.Rect.Max.X, b.Rect.Max.Y, b.T1, b.T2}
	for i := range af {
		if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
			return false
		}
	}
	return a.Kind == b.Kind && a.Bound == b.Bound
}

// checkScannerAgainstReference is the scanner's contract on one input,
// read as both endpoints' body: neither decoder panics, the scanner may
// give up on anything, and what it accepts the reference accepts, with
// the same value down to the bits of every float.
func checkScannerAgainstReference(t *testing.T, b []byte) {
	t.Helper()
	refEvents, err := decodeIngestJSON(b, nil)
	if events, ok := scanIngest(b, nil); ok {
		if err != nil {
			t.Fatalf("scanner accepts ingest body %q, the reference refuses it: %v", b, err)
		}
		if !sameEvents(events, refEvents) {
			t.Fatalf("ingest body %q: scanner %+v, reference %+v", b, events, refEvents)
		}
	}
	refQuery, err := decodeQueryJSON(b)
	if q, ok := scanQuery(b); ok {
		if err != nil {
			t.Fatalf("scanner accepts query body %q, the reference refuses it: %v", b, err)
		}
		if !sameQuery(q, refQuery) {
			t.Fatalf("query body %q: scanner %+v, reference %+v", b, q, refQuery)
		}
	}
}

func FuzzJSONRequestBodies(f *testing.F) {
	for _, seed := range jsonBodySeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkScannerAgainstReference)
}

// TestJSONDialectFallback pins the fork: the canonical spelling goes
// through the scanner, each non-canonical but valid spelling of the same
// request goes through encoding/json and means the same, and a malformed
// body is refused in encoding/json's words — the ones it had before the
// scanner existed.
func TestJSONDialectFallback(t *testing.T) {
	for _, seed := range jsonBodySeeds {
		checkScannerAgainstReference(t, []byte(seed))
	}

	ingest := func(body string) []Event {
		t.Helper()
		events, free, err := jsonCodec{}.readIngest(strings.NewReader(body))
		defer free()
		if err != nil {
			t.Fatalf("ingest body %s: %v", body, err)
		}
		return append([]Event(nil), events...)
	}
	const canonicalIngest = `{"events":[{"kind":"move","t":100,"road":3,"from":4},{"kind":"enter","t":0.5,"gateway":7}]}`
	want := []Event{MoveEvent(3, 4, 100), EnterEvent(7, 0.5)}
	for name, body := range map[string]string{
		"canonical":      canonicalIngest,
		"reordered keys": "{ \"events\" : [ {\"from\":4, \"t\":1e2, \"road\":3, \"kind\":\"move\"},\n\t{\"gateway\":7,\"kind\":\"enter\",\"t\":5E-1} ] }\r\n",
		"unused ids":     `{"events":[{"kind":"move","t":100,"road":3,"from":4,"gateway":9},{"kind":"enter","t":0.5,"gateway":7,"road":1,"from":2}]}`,
	} {
		if events, ok := scanIngest([]byte(body), nil); !ok || !sameEvents(events, want) {
			t.Fatalf("scanner on the %s ingest body: %+v ok=%v, want %+v", name, events, ok, want)
		}
	}
	for name, body := range map[string]string{
		"escaped value":   `{"events":[{"kind":"m\u006fve","t":100,"road":3,"from":4},{"kind":"enter","t":0.5,"gateway":7}]}`,
		"escaped key":     `{"events":[{"k\u0069nd":"move","t":100,"ro\u0061d":3,"from":4},{"kind":"enter","t":0.5,"gateway":7}]}`,
		"upper-case keys": `{"EVENTS":[{"Kind":"move","T":100,"ROAD":3,"From":4},{"kind":"enter","t":0.5,"gateway":7}]}`,
		"unknown key":     `{"events":[{"kind":"move","t":100,"road":3,"from":4,"object":"bus 12"},{"kind":"enter","t":0.5,"gateway":7}],"source":"rsu-3"}`,
		"duplicate key":   `{"events":[{"kind":"move","t":99,"t":100,"road":3,"from":4},{"kind":"enter","t":0.5,"gateway":7}]}`,
		"null ids":        `{"events":[{"kind":"move","t":100,"road":3,"from":4,"gateway":null},{"kind":"enter","t":0.5,"gateway":7,"road":null}]}`,
	} {
		if _, ok := scanIngest([]byte(body), nil); ok {
			t.Errorf("%s: scanner accepted a body outside its dialect", name)
		}
		if got := ingest(body); !sameEvents(got, want) {
			t.Errorf("%s: %+v, want %+v", name, got, want)
		}
	}

	const canonicalQuery = `{"rect":[100,100,300,300],"t1":100,"t2":200,"kind":"static","bound":"upper"}`
	wantQ := Query{Rect: Rect{Min: Point{X: 100, Y: 100}, Max: Point{X: 300, Y: 300}}, T1: 100, T2: 200, Kind: Static, Bound: Upper}
	if q, ok := scanQuery([]byte(canonicalQuery)); !ok || !sameQuery(q, wantQ) {
		t.Fatalf("scanner on the canonical query body: %+v ok=%v, want %+v", q, ok, wantQ)
	}
	for name, body := range map[string]string{
		"escaped value":  `{"rect":[100,100,300,300],"t1":100,"t2":200,"kind":"st\u0061tic","bound":"upper"}`,
		"upper-case key": `{"RECT":[100,100,300,300],"t1":100,"t2":200,"kind":"static","bound":"upper"}`,
		"unknown key":    `{"rect":[100,100,300,300],"t1":100,"t2":200,"kind":"static","bound":"upper","trace":true}`,
		"duplicate key":  `{"t1":1,"rect":[100,100,300,300],"t1":100,"t2":200,"kind":"static","bound":"upper"}`,
		"null":           `{"rect":[100,100,300,300],"t1":100,"t2":200,"kind":"static","bound":"upper","t2":null}`,
	} {
		if _, ok := scanQuery([]byte(body)); ok {
			t.Errorf("%s: scanner accepted a body outside its dialect", name)
		}
		if q, err := (jsonCodec{}).readQuery(strings.NewReader(body)); err != nil || !sameQuery(q, wantQ) {
			t.Errorf("%s: %+v (%v), want %+v", name, q, err, wantQ)
		}
	}

	// Error texts recorded at the commit before the scanner.
	for _, tc := range []struct{ path, body, want string }{
		{"query", `{"rect":[0,0,`, `malformed JSON body: unexpected EOF`},
		{"query", `{"rect":[0,0,1,1],"t1":01}`, `malformed JSON body: invalid character '1' after object key:value pair`},
		{"query", `{"rect":[0,0,1,1],"t1":1} {}`, `malformed JSON body: trailing data after JSON value`},
		{"query", `{"rect":[0,0,1,1],"t1":1,"kind":"sideways"}`, `unknown query kind "sideways"`},
		{"ingest", `{"events":[{"kind":"enter","gateway":1,"t":5}]}garbage`, `malformed JSON body: trailing data after JSON value`},
		{"ingest", `{"events":[{"kind":"warp","t":1}]}`, `event 0: unknown event kind "warp"`},
	} {
		var err error
		if tc.path == "query" {
			_, err = jsonCodec{}.readQuery(strings.NewReader(tc.body))
		} else {
			var free func()
			_, free, err = jsonCodec{}.readIngest(strings.NewReader(tc.body))
			free()
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s body %s: error %v, want %q", tc.path, tc.body, err, tc.want)
		}
	}
}

// benchIngestBody is a 64-event batch as the harness's JSON client
// spells it; benchQueryBody one of its queries.
func benchIngestBody(tb testing.TB) []byte {
	tb.Helper()
	req := IngestRequest{Events: make([]IngestEvent, 64)}
	for i := range req.Events {
		switch ts := 86400 + float64(i)*0.25; i % 8 {
		case 6:
			req.Events[i] = IngestEvent{Kind: "enter", T: ts, Gateway: 17 + i}
		case 7:
			req.Events[i] = IngestEvent{Kind: "leave", T: ts, Gateway: 17 + i}
		default:
			req.Events[i] = IngestEvent{Kind: "move", T: ts, Road: 1000 + 37*i, From: 400 + 11*i}
		}
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func benchQueryBody(tb testing.TB) []byte {
	tb.Helper()
	b, err := json.Marshal(QueryRequest{Rect: [4]float64{812.5, 1200, 2950.25, 3100}, T1: 43200, T2: 46800.5, Kind: "transient"})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestJSONDecodeZeroAllocs: once its scratch is pooled, decoding a
// canonical request through the codec — read the body, scan it — costs
// no allocation.
func TestJSONDecodeZeroAllocs(t *testing.T) {
	// The race detector makes sync.Pool drop a quarter of what it is
	// given, on purpose; make check runs this test again without it.
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		probe.Put(new(int))
		if probe.Get() == nil {
			t.Skip("sync.Pool does not retain here (race detector): zero assumes the pooled scratch comes back")
		}
	}
	ingest, query := benchIngestBody(t), benchQueryBody(t)
	var rdr bytes.Reader
	if n := testing.AllocsPerRun(200, func() {
		rdr.Reset(ingest)
		events, free, err := jsonCodec{}.readIngest(&rdr)
		if err != nil || len(events) != 64 {
			t.Fatalf("%d events, %v", len(events), err)
		}
		free()
	}); n != 0 {
		t.Errorf("readIngest allocates %.1f per 64-event body, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		rdr.Reset(query)
		if _, err := (jsonCodec{}).readQuery(&rdr); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("readQuery allocates %.1f per body, want 0", n)
	}
}

func BenchmarkJSONDecodeIngest(b *testing.B) {
	body := benchIngestBody(b)
	run := func(decode func(dst []Event) ([]Event, bool)) func(*testing.B) {
		return func(b *testing.B) {
			var scratch []Event
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				events, ok := decode(scratch[:0])
				if !ok || len(events) != 64 {
					b.Fatal("decode failed")
				}
				scratch = events
			}
		}
	}
	b.Run("scanner", run(func(dst []Event) ([]Event, bool) { return scanIngest(body, dst) }))
	b.Run("encodingjson", run(func(dst []Event) ([]Event, bool) {
		events, err := decodeIngestJSON(body, dst)
		return events, err == nil
	}))
}

var benchQuerySink Query

func BenchmarkJSONDecodeQuery(b *testing.B) {
	body := benchQueryBody(b)
	run := func(decode func() (Query, bool)) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q, ok := decode()
				if !ok {
					b.Fatal("decode failed")
				}
				benchQuerySink = q
			}
		}
	}
	b.Run("scanner", run(func() (Query, bool) { return scanQuery(body) }))
	b.Run("encodingjson", run(func() (Query, bool) {
		q, err := decodeQueryJSON(body)
		return q, err == nil
	}))
}
