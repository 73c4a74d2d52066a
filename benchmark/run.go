package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	stq "repro"
)

// metric is one reported value. Samples is the number of observations
// behind a percentile (0 where it does not apply).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples,omitempty"`
}

// runRecord is the outcome of one invocation on one workload and seed:
// a timed run (EndToEnd) or a traced run (PerLayer).
type runRecord struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	StreamHash string            `json:"stream_hash"`
	Attempted  int64             `json:"attempted"`
	AckEvents  int64             `json:"ack_events"` // events acknowledged, warm-up included
	Failed     int64             `json:"failed"`
	Correct    bool              `json:"correct"`
	FirstError string            `json:"first_error,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
}

// runParams are the knobs of one invocation.
type runParams struct {
	spec workloadSpec
	seed int64
	sc   scale
	// measure is the length of the measured phase (--seconds).
	measure time.Duration
	traced  bool
	// outDir receives scratch state while running and, when writeSpan is
	// set, the span file of a traced run.
	outDir    string
	writeSpan bool
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runWorkload performs one invocation: generate the inputs from the
// seed, compute the reference answers, boot a fresh deployment, drive
// it, check it, and name what was measured.
func runWorkload(p runParams) (*runRecord, error) {
	in, err := generateInputs(p.seed, p.sc, p.spec, numClients)
	if err != nil {
		return nil, err
	}
	rec := &runRecord{Workload: p.spec.name, Seed: p.seed, Traced: p.traced, StreamHash: fmt.Sprintf("%016x", in.streamHash())}
	if err := fillReferences(in); err != nil {
		return nil, err
	}

	tmp, err := os.MkdirTemp(p.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Set-up is timed several times and the median reported; the last
	// deployment is the one driven. A traced run reports no set-up time
	// and boots once.
	reps := p.sc.setupReps
	if p.traced {
		reps = 1
	}
	var d *deployment
	var setups []float64
	for i := 0; i < reps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if d, err = boot(in, bootOpts{dir: filepath.Join(tmp, fmt.Sprintf("live-%d", i))}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if d != nil {
			_ = d.close()
		}
	}()

	cfg := runCfg{
		clients: len(in.clients), checkpoints: p.spec.deploy == deployDurable,
		warmup: time.Duration(warmupShare * float64(p.measure)), sliceDur: p.sc.slice,
	}
	if cfg.slices = int(p.measure / cfg.sliceDur); cfg.slices < 1 {
		cfg.slices = 1
	}
	if p.spec.fixedWork {
		cfg.sliceEvents = int64(p.measure.Seconds()*float64(p.sc.durableEventsPerSec)) / int64(cfg.slices)
	}
	cfg.obsOdd = p.traced
	runtime.GC()
	res, err := drive(d, cfg)
	if err != nil {
		return nil, err
	}
	rec.Attempted, rec.Failed, rec.AckEvents = res.attempted, res.failed(), res.ackEvents
	if res.firstErr != nil {
		rec.FirstError = res.firstErr.Error()
	}
	mem, err := d.memory()
	if err != nil {
		return nil, err
	}

	var rcv *recovery
	if p.spec.deploy == deployDurable {
		if rcv, err = recoverCrashImage(d, res, tmp, p.traced); err != nil {
			return nil, err
		}
	}
	ckptBytes := checkpointBytes(d.dir)
	err = d.close()
	d = nil
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0

	if !p.traced {
		rec.EndToEnd = endToEndMetrics(res, median(setups), mem, rcv)
		return rec, nil
	}

	rec.PerLayer = map[string]metric{}
	loadedLayerMetrics(rec.PerLayer, p.spec, res, mem, ckptBytes, rcv)
	rd, err := tracedReplay(in, tmp)
	if err != nil {
		return nil, err
	}
	replayLayerMetrics(rec.PerLayer, p.spec, rd)
	if err := scratchLayerMetrics(rec.PerLayer, in, rd, tmp); err != nil {
		return nil, err
	}
	if p.writeSpan {
		if err := rd.spans.write(filepath.Join(p.outDir, fmt.Sprintf("spans-%s-seed%d.json", p.spec.name, p.seed))); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// sliceSet selects slices of a driven phase by index.
type sliceSet func(k int) bool

func evenSlices(k int) bool { return k%2 == 0 }
func oddSlices(k int) bool  { return k%2 == 1 }

// sliceRate is slice k's completed requests per second (0 for a slice
// that completed none).
func sliceRate(res *runResult, k int) float64 {
	dt := res.bounds[k+1].at.Sub(res.bounds[k].at)
	if dt <= 0 {
		return 0
	}
	return float64(res.slices[k].ops()) / dt.Seconds()
}

func queryHist(s *sliceAcc) *hist {
	h := new(hist)
	for k := opSnapshot; k <= opTransient; k++ {
		h.merge(&s.lat[k])
	}
	return h
}

// opsPerSec is the median completed requests per second of the selected
// slices. The traced run compares its obs-on and obs-off slices with it.
func opsPerSec(res *runResult, in sliceSet) float64 {
	var rates []float64
	for k := range res.slices {
		if r := sliceRate(res, k); in(k) && r > 0 {
			rates = append(rates, r)
		}
	}
	return median(rates)
}

// window is a set of slices taken as one stretch of the run: their
// samples pooled, their lengths and CPU times added.
type window struct {
	sliceAcc
	dt, cpu time.Duration
}

// quietWindow pools the fastest quietShare of the slices, by completed
// requests per second (at least one slice). A neighbour on the shared
// host only ever slows a slice, so the fastest slices are the ones that
// show the program's own cost.
func quietWindow(res *runResult) *window {
	type ranked struct {
		k    int
		rate float64
	}
	var rs []ranked
	for k := range res.slices {
		if r := sliceRate(res, k); r > 0 {
			rs = append(rs, ranked{k, r})
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].rate > rs[j].rate })
	keep := int(quietShare * float64(len(res.slices)))
	if keep < 1 {
		keep = 1
	}
	if keep > len(rs) {
		keep = len(rs)
	}
	w := new(window)
	for _, r := range rs[:keep] {
		w.merge(&res.slices[r.k])
		w.dt += res.bounds[r.k+1].at.Sub(res.bounds[r.k].at)
		w.cpu += res.bounds[r.k+1].cpu - res.bounds[r.k].cpu
	}
	return w
}

// endToEndMetrics names what a user of the system would see, as
// measured over the quiet window of a timed phase: rates are its ops
// (events) over its length, percentiles are over its pooled samples.
func endToEndMetrics(res *runResult, setupS float64, mem memoryStats, rcv *recovery) map[string]metric {
	w := quietWindow(res)
	m := map[string]metric{}
	m["setup_s"] = metric{Value: setupS, Unit: "s"}
	m["ops_per_s"] = metric{Value: ratio(float64(w.ops()), w.dt.Seconds()), Unit: "1/s", Samples: w.ops()}
	pct := func(name string, h *hist, q float64) {
		m[name] = metric{Value: h.quantile(q) / 1e3, Unit: "us", Samples: int64(h.n)}
	}
	pct("snapshot_p50_us", &w.lat[opSnapshot], 0.50)
	pct("static_p50_us", &w.lat[opStatic], 0.50)
	pct("transient_p50_us", &w.lat[opTransient], 0.50)
	pct("query_p95_us", queryHist(&w.sliceAcc), 0.95)
	pct("ingest_p50_us", &w.lat[opIngest], 0.50)
	pct("ingest_p95_us", &w.lat[opIngest], 0.95)
	m["ingest_events_per_s"] = metric{Value: ratio(float64(w.events), w.dt.Seconds()), Unit: "1/s"}
	m["cpu_us_per_op"] = metric{Value: ratio(float64(w.cpu)/1e3, float64(w.ops())), Unit: "us"}
	m["mem_bytes_per_event"] = metric{Value: ratio(float64(mem.bytes), float64(mem.events)), Unit: "B"}
	if rcv != nil {
		m["recover_events_per_s"] = metric{Value: rcv.eventsPerSec, Unit: "1/s"}
	}
	ff := 0.0
	if res.attempted > 0 {
		ff = float64(res.failed()) / float64(res.attempted)
	}
	m["failed_frac"] = metric{Value: ff, Unit: "frac", Samples: res.attempted}
	return m
}

// checkpointBytes sums the checkpoint files a durable directory holds.
func checkpointBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && strings.HasPrefix(info.Name(), "ckpt-") {
			n += info.Size()
		}
		return nil
	})
	return n
}

// recovery is what reopening the crash image measured.
type recovery struct {
	eventsPerSec float64
	records      uint64 // wal.recovered_records (traced runs)
}

// recoveryQueries is how many pooled answers recovery is checked on.
const recoveryQueries = 64

// recoverCrashImage stops short of Close: it syncs the log, copies the
// directory as a crash would leave it, reopens the copy and times that.
// The recovered system must hold every acknowledged event and answer
// the pooled queries exactly as the live one does.
func recoverCrashImage(d *deployment, res *runResult, tmp string, withObs bool) (*recovery, error) {
	in := d.in
	d.sys.WaitHistorySeals()
	live := d.sys.NumEvents()
	if want := in.preloadEventCount() + int(res.ackEvents); live != want {
		return nil, fmt.Errorf("live system holds %d events, %d were acknowledged", live, want)
	}
	if err := d.sys.SyncWAL(); err != nil {
		return nil, err
	}
	w, err := buildWorld(in.gridOpts)
	if err != nil {
		return nil, err
	}
	rcv := &recovery{}
	var secs []float64
	for rep := 0; rep < 3; rep++ {
		img := filepath.Join(tmp, fmt.Sprintf("crash-%d", rep))
		if err := copyDir(d.dir, img); err != nil {
			return nil, err
		}
		if withObs && rep == 0 {
			stq.ResetObservability()
			stq.EnableObservability()
		}
		t0 := time.Now()
		rsys, err := stq.OpenDurable(w, durability(img))
		dt := time.Since(t0).Seconds()
		stq.DisableObservability()
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		if withObs && rep == 0 {
			rcv.records = rsys.Snapshot().Counter("wal.recovered_records")
		}
		secs = append(secs, dt)
		err = checkRecovered(in, d.sys, rsys, live)
		if cerr := rsys.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(img); err != nil {
			return nil, err
		}
	}
	rcv.eventsPerSec = float64(live) / median(secs)
	return rcv, nil
}

func checkRecovered(in *inputs, live, rsys *stq.System, liveEvents int) error {
	if got := rsys.NumEvents(); got != liveEvents {
		return fmt.Errorf("recovery lost acknowledged events: recovered %d of %d", got, liveEvents)
	}
	n := 0
	for _, o := range in.clients[0].ops {
		if o.kind == opIngest {
			continue
		}
		lr, err := live.Query(o.q)
		if err != nil {
			return err
		}
		rr, err := rsys.Query(o.q)
		if err != nil {
			return err
		}
		if answerOf(rr) != answerOf(lr) || answerOf(rr) != o.want {
			return fmt.Errorf("recovered system answers %+v, live %+v, reference %+v", answerOf(rr), answerOf(lr), o.want)
		}
		if n++; n == recoveryQueries {
			break
		}
	}
	return nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
