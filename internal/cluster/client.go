package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ErrUnavailable marks a cell that could not be reached, timed out, or
// kept refusing past the retry budget. Queries absorb it by widening
// the answer interval; ingest surfaces it so the serving layer can
// answer 503 instead of 400.
var ErrUnavailable = errors.New("cluster: cell unavailable")

// Options tunes the router's per-cell RPC behavior. The zero value
// gets sensible defaults.
type Options struct {
	// Timeout bounds one RPC attempt, dial included (default 2s).
	Timeout time.Duration
	// Attempts is the total try count of every exchange — queries,
	// handshakes, phase-1 validation and applies alike (default 3). An
	// apply may be tried again because it carries the router's number
	// for the cell, and a cell applies a number at most once.
	Attempts int
	// Backoff is the initial retry delay, doubling per attempt
	// (default 25ms).
	Backoff time.Duration
	// HealthInterval is the background probe period (default 2s);
	// negative disables the health loop (tests drive Probe directly).
	HealthInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Attempts <= 0 {
		o.Attempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 25 * time.Millisecond
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = 2 * time.Second
	}
	return o
}

var (
	cRPCs       = obs.Default.Counter("cluster.rpcs")
	cDials      = obs.Default.Counter("cluster.conn_dials")
	cRetries    = obs.Default.Counter("cluster.rpc_retries")
	cFailures   = obs.Default.Counter("cluster.rpc_failures")
	cDeaths     = obs.Default.Counter("cluster.cell_deaths")
	cRecoveries = obs.Default.Counter("cluster.cell_recoveries")
)

// remoteError is a definitive refusal the cell answered with (a 4xx
// error frame): retrying cannot help and the cell is not presumed
// dead.
type remoteError struct {
	status int
	msg    string
}

func (e *remoteError) Error() string { return e.msg }

// Status returns the HTTP status of a cell's definitive refusal, or 0.
func Status(err error) int {
	var re *remoteError
	if errors.As(err, &re) {
		return re.status
	}
	return 0
}

const (
	maxIdleConns = 16                                // kept connections on a cell's free list
	maxReply     = wire.HeaderSize + wire.MaxPayload // largest response body read
	keepBuffers  = 1 << 20                           // a kept connection holds on to no more
)

// cellClient is the router's HTTP client for one cell: wire frames
// POSTed to the cell's endpoints over kept connections, one Write and
// one response read per exchange, with per-attempt deadlines and
// exponential backoff on idempotent calls (DESIGN.md §16.6).
type cellClient struct {
	cell         int
	addr, prefix string // dial address; path prefix of every endpoint
	opt          Options

	mu   sync.Mutex
	idle []*conn // LIFO: the warmest connection is reused first
	// cut records a kept connection found cut since the last handshake:
	// the cell may have restarted, so the next Probe shakes hands with it
	// again.
	cut atomic.Bool
}

// conn is one connection to a cell and the buffers its exchanges reuse.
type conn struct {
	net.Conn
	br     *bufio.Reader
	out    []byte           // request head and frame, one Write
	body   bytes.Buffer     // response body
	limit  io.LimitedReader // over the response body
	reused bool             // came off the free list
	keep   bool             // the last exchange left it reusable
}

// newCellClient accepts "host:port" or "http://host[:port][/prefix]".
// No daemon here has a TLS listener, so any other scheme is refused
// rather than spoken to in plain text.
func newCellClient(cell int, addr string, opt Options) (*cellClient, error) {
	raw := addr
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("cluster: cell %d: bad address %q", cell, addr)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("cluster: cell %d: address %q: scheme %q is not supported (cells serve plain http)", cell, addr, u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	return &cellClient{cell: cell, addr: host, prefix: strings.TrimSuffix(u.Path, "/"), opt: opt}, nil
}

// exchange sends one request and reads its whole response, on a kept
// connection or a fresh dial, under one deadline for the attempt. On
// success the caller owns cn and the response in cn.body until release.
// A failure on a reused connection before the first response byte, other
// than a timeout, says nothing about the cell — it restarted, drained, or
// a middlebox cut an idle socket — and the other kept connections are as
// old: the free list is dropped, cut is set, and the exchange is
// repeated once on a fresh dial. Every exchange may be repeated: a cell
// applies a numbered apply at most once.
func (c *cellClient) exchange(method, path string, frame []byte) (cn *conn, status int, err error) {
	deadline := time.Now().Add(c.opt.Timeout)
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cn, c.idle = c.idle[n-1], c.idle[:n-1]
		cn.reused = true
	}
	c.mu.Unlock()
	for {
		if cn == nil {
			if cn, err = c.dial(deadline); err != nil {
				return nil, 0, err
			}
		}
		var answered bool
		if status, answered, err = cn.roundTrip(c, method, path, frame, deadline); err == nil {
			return cn, status, nil
		}
		cn.Close()
		if !cn.reused || answered || errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, 0, err
		}
		c.dropIdle()
		c.cut.Store(true)
		cn = nil
	}
}

func (c *cellClient) dial(deadline time.Time) (*conn, error) {
	cDials.Inc()
	nc, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: nc, br: bufio.NewReader(nc)}, nil
}

// roundTrip is one request and one response on cn. answered reports
// whether the cell sent any response byte.
func (cn *conn) roundTrip(c *cellClient, method, path string, frame []byte, deadline time.Time) (status int, answered bool, err error) {
	if err := cn.SetDeadline(deadline); err != nil {
		return 0, false, err
	}
	b := append(append(append(append(cn.out[:0], method...), ' '), c.prefix...), path...)
	b = append(append(b, " HTTP/1.1\r\nHost: "...), c.addr...)
	if frame != nil {
		b = append(b, "\r\nContent-Type: "+wire.ContentType+"\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(frame)), 10)
	}
	b = append(append(b, "\r\n\r\n"...), frame...)
	cn.out = b[:0]
	// A failed write does not skip the read: whatever the cell answered
	// before it stopped reading (an early 413) is still classified.
	_, werr := cn.Write(b)
	if _, err := cn.br.Peek(1); err != nil {
		if werr != nil {
			err = werr
		}
		return 0, false, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return 0, true, err
	}
	if resp.ContentLength > maxReply {
		return 0, true, fmt.Errorf("response of %d bytes exceeds the %d-byte frame limit", resp.ContentLength, maxReply)
	}
	// Past the limit the body is cut short, for ParseFrame to refuse.
	cn.body.Reset()
	cn.limit = io.LimitedReader{R: resp.Body, N: maxReply + 1}
	if _, err := cn.body.ReadFrom(&cn.limit); err != nil {
		return 0, true, err
	}
	cn.keep = werr == nil && !resp.Close && cn.limit.N > 0 && cn.br.Buffered() == 0
	return resp.StatusCode, true, nil
}

// release ends the caller's ownership of cn: back on the free list when
// its exchange left it clean and there is room, closed otherwise.
func (c *cellClient) release(cn *conn) {
	if cap(cn.out)+cn.body.Cap() > keepBuffers {
		cn.out, cn.body = nil, bytes.Buffer{}
	}
	c.mu.Lock()
	kept := cn.keep && len(c.idle) < maxIdleConns
	if kept {
		c.idle = append(c.idle, cn)
	}
	c.mu.Unlock()
	if !kept {
		cn.Close()
	}
}

// dropIdle closes every kept connection.
func (c *cellClient) dropIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cn := range idle {
		cn.Close()
	}
}

// do performs one RPC attempt: POST the frame, parse the response
// frame, demand wantKind, and hand its payload — which aliases the
// connection's buffer, released on return — to decode, which copies what
// it keeps. retryable distinguishes transient failures (transport,
// timeout, 5xx, 429, corrupt response) from definitive refusals.
func (c *cellClient) do(path string, frame []byte, wantKind byte, decode func(payload []byte) error) (retryable bool, err error) {
	cRPCs.Inc()
	cn, _, err := c.exchange(http.MethodPost, path, frame)
	if err != nil {
		return true, err
	}
	defer c.release(cn)
	kind, pl, _, err := wire.ParseFrame(cn.body.Bytes())
	if err != nil {
		// A non-wire response (proxy error page, truncated stream) is a
		// transport-level problem, not a cell decision.
		return true, fmt.Errorf("cell %d: bad response frame: %v", c.cell, err)
	}
	if kind == wire.KindError {
		status, msg, derr := wire.DecodeError(pl)
		if derr != nil {
			return true, derr
		}
		if status >= 500 || status == http.StatusTooManyRequests {
			return true, fmt.Errorf("cell %d: status %d: %s", c.cell, status, msg)
		}
		return false, &remoteError{status: status, msg: fmt.Sprintf("cell %d: %s", c.cell, msg)}
	}
	if kind != wantKind {
		return true, fmt.Errorf("cell %d: unexpected frame kind %d (want %d)", c.cell, kind, wantKind)
	}
	if err := decode(pl); err != nil {
		return false, fmt.Errorf("%w: cell %d: %v", ErrUnavailable, c.cell, err)
	}
	return false, nil
}

// call retries do with exponential backoff.
func (c *cellClient) call(path string, frame []byte, wantKind byte, decode func(payload []byte) error) error {
	backoff := c.opt.Backoff
	var lastErr error
	for a := 0; a < c.opt.Attempts; a++ {
		if a > 0 {
			cRetries.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		retryable, err := c.do(path, frame, wantKind, decode)
		if err == nil || !retryable {
			return err
		}
		lastErr = err
	}
	cFailures.Inc()
	return fmt.Errorf("%w: cell %d after %d attempts: %v", ErrUnavailable, c.cell, c.opt.Attempts, lastErr)
}

// hello performs the manifest handshake.
func (c *cellClient) hello(manifestHash uint64) (ack wire.HelloAckFrame, err error) {
	enc := wire.GetEncoder()
	defer wire.PutEncoder(enc)
	frame := enc.EncodeHello(wire.HelloFrame{ManifestHash: manifestHash, Cell: c.cell})
	err = c.call("/v1/cell", frame, wire.KindHelloAck, func(payload []byte) (derr error) {
		ack, derr = wire.DecodeHelloAck(payload)
		return derr
	})
	return ack, err
}

// scatter executes one scatter op with retries.
func (c *cellClient) scatter(f wire.ScatterFrame) (pf wire.PartialFrame, err error) {
	enc := wire.GetEncoder()
	defer wire.PutEncoder(enc)
	err = c.call("/v1/cell", enc.EncodeScatter(f), wire.KindPartial, func(payload []byte) (derr error) {
		if pf, derr = wire.DecodePartial(payload); derr == nil && pf.Op != f.Op {
			derr = fmt.Errorf("partial op %d for scatter op %d", pf.Op, f.Op)
		}
		return derr
	})
	if err != nil {
		return wire.PartialFrame{}, err
	}
	return pf, nil
}

// apply sends one sub-batch under the router's number seq for the cell
// (POST /v1/ingest?seq=N, the body any ingest carries), with call's
// retries: a cell acknowledges a number it already holds without
// applying it again, so a lost acknowledgement costs a retry, not a
// double count.
func (c *cellClient) apply(seq uint64, events []core.Event) error {
	enc := wire.GetEncoder()
	defer wire.PutEncoder(enc)
	path := string(strconv.AppendUint([]byte("/v1/ingest?seq="), seq, 10))
	return c.call(path, enc.EncodeIngest(events, wire.DefaultTick), wire.KindIngestResult, func([]byte) error { return nil })
}

// readyz is the health probe of a live cell.
func (c *cellClient) readyz() error {
	cn, status, err := c.exchange(http.MethodGet, "/readyz", nil)
	if err != nil {
		return err
	}
	c.release(cn)
	if status != http.StatusOK {
		return fmt.Errorf("cell %d: readyz status %d", c.cell, status)
	}
	return nil
}
