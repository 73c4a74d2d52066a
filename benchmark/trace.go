package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced replay. Start and End are
// nanoseconds since the replay began; Op is the replay index of the
// request that caused it; Parent names the enclosing layer's span of
// the same op.
type span struct {
	Op        int    `json:"op"`
	Layer     string `json:"layer"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Parent    string `json:"parent,omitempty"`
	Kind      string `json:"kind,omitempty"`   // op kind, on client spans
	Detail    string `json:"detail,omitempty"` // URL path, on handler spans
	Cell      *int   `json:"cell,omitempty"`   // cell index, on cell spans
	ReqBytes  int    `json:"req_bytes,omitempty"`
	RespBytes int    `json:"resp_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// capturedRPC is one router→cell exchange kept verbatim, so the wire
// codecs can be timed on frames the program really sent.
type capturedRPC struct {
	path      string
	req, resp []byte
}

// maxCapturedRPCs bounds the frames kept for codec timing.
const maxCapturedRPCs = 512

// spanLog collects spans in memory; they are written out when the
// benchmark ends. The replay is sequential, so every handler span that
// starts while op i is in flight belongs to op i — no trace id has to
// travel on the wire.
type spanLog struct {
	t0 time.Time
	op atomic.Int64 // replay index in flight; −1 outside the recorded part

	mu    sync.Mutex
	spans []span
	rpcs  []capturedRPC
}

func newSpanLog() *spanLog {
	l := &spanLog{t0: time.Now()}
	l.op.Store(-1)
	return l
}

func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.t0)) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// countingWriter counts (and optionally keeps) the response body.
type countingWriter struct {
	http.ResponseWriter
	n    int
	keep *bytes.Buffer
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	if w.keep != nil {
		w.keep.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

// wrap returns a handler that records one span per /v1/ request served
// by next. layer is "serve" for the front server and "cell" (with its
// index) for a cluster cell; cell exchanges are also captured.
func (l *spanLog) wrap(layer string, cell int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := l.op.Load()
		if op < 0 || !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &countingWriter{ResponseWriter: w}
		if layer == "cell" {
			cw.keep = new(bytes.Buffer)
		}
		next.ServeHTTP(cw, r)
		s := span{
			Op: int(op), Layer: layer, Start: l.since(start), End: l.since(time.Now()),
			Detail: r.URL.Path, ReqBytes: len(body), RespBytes: cw.n,
		}
		l.mu.Lock()
		if layer == "cell" {
			s.Parent, s.Cell = "serve", &cell
			if len(l.rpcs) < maxCapturedRPCs {
				l.rpcs = append(l.rpcs, capturedRPC{path: r.URL.Path, req: body, resp: cw.keep.Bytes()})
			}
		} else {
			s.Parent = "net"
		}
		l.spans = append(l.spans, s)
		l.mu.Unlock()
	})
}

// write stores the spans as one JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unionNs is the total length covered by the spans (which may overlap:
// a router scatters to several cells at once).
func unionNs(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	// Few spans per op; insertion sort by start keeps this allocation-free
	// for the caller's scratch slice.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Start < spans[j-1].Start; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	var total int64
	curS, curE := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start > curE {
			total += curE - curS
			curS, curE = s.Start, s.End
			continue
		}
		if s.End > curE {
			curE = s.End
		}
	}
	return total + curE - curS
}
