package daemon

// The one lifecycle of stqd, stqd -cell and stqrouter, driven through
// serve with a cancellable context standing in for SIGTERM.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
)

func listen(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln, "http://" + ln.Addr().String()
}

func status(t *testing.T, method, url string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", msg)
		}
	}
}

// TestServeLifecycle: the listener answers probes while build is still
// recovering; the built server takes over; cancellation waits for the
// request in flight, then leaves a durable system checkpointed and
// closed.
func TestServeLifecycle(t *testing.T) {
	ref, err := stq.NewGridCitySystem(stq.GridOpts{NX: 6, NY: 6, Spacing: 80, Jitter: 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, dir := ref.World(), t.TempDir()
	ln, base := listen(t)

	proceed := make(chan struct{})
	built := make(chan *stq.Server, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- serve(ctx, ln, "test", func() (*stq.Server, error) {
			<-proceed
			sys, err := stq.OpenDurable(w, stq.Durability{Dir: dir})
			if err != nil {
				return nil, err
			}
			srv := stq.NewServer(sys, stq.ServerConfig{})
			built <- srv
			return srv, nil
		})
	}()

	// While build blocks: alive, not ready, not serving.
	if c := status(t, http.MethodGet, base+"/healthz"); c != http.StatusOK {
		t.Errorf("booting /healthz: %d, want 200", c)
	}
	if c := status(t, http.MethodGet, base+"/readyz"); c != http.StatusServiceUnavailable {
		t.Errorf("booting /readyz: %d, want 503", c)
	}
	if c := status(t, http.MethodPost, base+"/v1/query"); c != http.StatusServiceUnavailable {
		t.Errorf("booting /v1/query: %d, want 503", c)
	}
	close(proceed)
	srv := <-built
	waitFor(t, func() bool { return status(t, http.MethodGet, base+"/readyz") == http.StatusOK }, "/readyz 200 after build")

	// An ingest whose body is still arriving when the signal comes.
	from := int(w.Star.Edge(0).U)
	event := func(ts int) string { return fmt.Sprintf(`{"kind":"move","t":%d,"road":0,"from":%d}`, ts, from) }
	pr, pw := io.Pipe()
	type answer struct {
		code int
		body string
		err  error
	}
	answered := make(chan answer, 1)
	before := srv.Stats().Requests
	go func() {
		resp, err := http.Post(base+"/v1/ingest", "application/json", pr)
		if err != nil {
			answered <- answer{err: err}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		answered <- answer{code: resp.StatusCode, body: string(b)}
	}()
	fmt.Fprintf(pw, `{"events":[%s,%s,`, event(10), event(20))
	waitFor(t, func() bool { return srv.Stats().Requests == before+1 }, "the ingest to reach its handler")

	cancel()
	select {
	case err := <-served:
		t.Fatalf("serve returned (%v) with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	fmt.Fprintf(pw, `%s]}`, event(30))
	pw.Close()
	if a := <-answered; a.err != nil || a.code != http.StatusOK || !strings.Contains(a.body, `"ingested":3`) {
		t.Fatalf("in-flight ingest across shutdown: %+v, want 200 ingested 3", a)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Drained: a final checkpoint on disk. Closed: the log takes no more.
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.stq")); len(ckpts) == 0 {
		t.Error("no checkpoint file after shutdown")
	}
	if err := srv.System().RecordBatch([]stq.Event{stq.MoveEvent(0, w.Star.Edge(0).U, 40)}); err == nil {
		t.Error("system still accepts durable ingest after shutdown; it was not closed")
	}
	re, err := stq.OpenDurable(w, stq.Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumEvents(); got != 3 {
		t.Errorf("recovered %d events, want the 3 ingested across the shutdown", got)
	}
}

// TestRegisterDeclaresTheCommonFlags pins the set of flags Register
// declares, so a flag added or removed cannot leave the package comment
// and DESIGN.md §16.5, which list them, behind.
func TestRegisterDeclaresTheCommonFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"addr", "budget", "max-inflight", "max-queued", "no-obs", "privacy-eps", "privacy-total", "seed", "slow"}
	if !slices.Equal(got, want) {
		t.Fatalf("Register declares %v, want the nine common flags %v", got, want)
	}
}

// TestConfigureRefusesNonFinitePrivacy: -privacy-eps NaN used to arm a
// budget whose every release was NaN, and -privacy-total NaN silently
// started with privacy off. Either flag non-finite fails Configure, and
// the system is left as it was: privacy off.
func TestConfigureRefusesNonFinitePrivacy(t *testing.T) {
	sys, err := stq.NewGridCitySystem(stq.GridOpts{NX: 4, NY: 4, Spacing: 50}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-privacy-total", "10", "-privacy-eps", "NaN"},
		{"-privacy-total", "NaN"},
		{"-privacy-total", "+Inf"},
		{"-privacy-total", "0", "-privacy-eps", "-Inf"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := Register(fs)
		if err := fs.Parse(append(args, "-budget", "0")); err != nil {
			t.Fatal(err)
		}
		if err := f.Configure(sys); err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Errorf("%v: Configure = %v, want a refusal", args, err)
		}
		if got := sys.PrivacyBudgetRemaining(); !math.IsInf(got, 1) {
			t.Errorf("%v: privacy budget %v, want +Inf (off)", args, got)
		}
	}
}

// TestServeBuildFailure: a build error ends serve with that error and
// frees the port.
func TestServeBuildFailure(t *testing.T) {
	ln, base := listen(t)
	err := serve(context.Background(), ln, "test", func() (*stq.Server, error) {
		return nil, fmt.Errorf("manifest mismatch")
	})
	if err == nil || !strings.Contains(err.Error(), "manifest mismatch") {
		t.Fatalf("serve = %v, want the build error", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still answering after a failed build")
	}
}

// TestServeStoppedWhileStarting: a signal that arrives before anything
// is served ends the process at once; it does not wait out the recovery.
func TestServeStoppedWhileStarting(t *testing.T) {
	ln, _ := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	never := make(chan struct{})
	defer close(never)
	served := make(chan error, 1)
	go func() {
		served <- serve(ctx, ln, "test", func() (*stq.Server, error) {
			<-never
			return nil, fmt.Errorf("abandoned")
		})
	}()
	cancel()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("serve returned nil for a daemon that never served")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve waited for build after the signal")
	}
}

// TestHeaderTimeout: a peer that opens a connection and never finishes
// its request line is cut off instead of pinning a goroutine forever.
func TestHeaderTimeout(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 50 * time.Millisecond
	ln, _ := listen(t)
	hs, _ := Start(ln, http.NotFoundHandler())
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /heal"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server may say goodbye (4xx) first; what matters is that it
	// hangs up long before the read deadline.
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection not closed by the server: %v (read %q)", err, reply)
	}
}

// TestBodyTimeout: the handlers take their admission slot before they
// read the body, so a peer that sends its headers and then stalls must
// be cut off and its slot released — on a MaxInflight 1 server the
// request behind it is then served instead of waiting for ever.
func TestBodyTimeout(t *testing.T) {
	defer func(d time.Duration) { readTimeout = d }(readTimeout)
	readTimeout = 100 * time.Millisecond
	sys, err := stq.NewGridCitySystem(stq.GridOpts{NX: 6, NY: 6, Spacing: 80, Jitter: 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := stq.NewServer(sys, stq.ServerConfig{MaxInflight: 1})
	ln, base := listen(t)
	hs, _ := Start(ln, srv)
	defer func() {
		if err := Stop(hs, srv); err != nil {
			t.Error(err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	before := srv.Stats().Requests
	if _, err := io.WriteString(conn, "POST /v1/ingest HTTP/1.1\r\nHost: stq\r\nContent-Length: 4096\r\n\r\n{\"events\":["); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Stats().Requests == before+1 }, "the stalled ingest to take the only slot")

	// The request behind it waits in the admission queue until the
	// stalled read times out; without the timeout it never returns.
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(base+"/v1/query", "application/json", strings.NewReader(`{"rect":[0,0,400,400],"t1":1}`))
	if err != nil {
		t.Fatalf("query behind a stalled body: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("query behind a stalled body: HTTP %d, want 200", resp.StatusCode)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(conn)
	if err != nil || !strings.HasPrefix(string(reply), "HTTP/1.1 400") {
		t.Errorf("stalled ingest: read %q (%v), want a 400 and then the connection closed", reply, err)
	}
	if n := srv.Stats().IngestEvents; n != 0 {
		t.Errorf("%d events applied from a body that never arrived", n)
	}
}
