package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// testScale is smaller than quick: enough ops to exercise every path,
// short enough that the whole package tests in a few seconds.
var testScale = scale{
	name: "test", grid: 8, objects: 80, lapHorizon: 20000, preloadEvents: 20_000,
	poolOps: 256, slice: 50 * time.Millisecond, replayOps: 150,
	durableEventsPerSec: 150_000, setupReps: 1,
}

func specOf(t *testing.T, name string) workloadSpec {
	t.Helper()
	spec, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return spec
}

// The summariser must agree with an exact sort on 10^5 samples.
func TestHistPercentilesMatchExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	exact := make([]float64, 100_000)
	for i := range exact {
		// Log-normal around 100 µs with a heavy tail, like a latency.
		ns := int64(100_000 * math.Exp(0.8*rng.NormFloat64()))
		exact[i] = float64(ns)
		h.add(ns)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.50, 0.95, 0.99} {
		want := exact[int(q*float64(len(exact)-1))]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%.0f: summariser %.0f ns, exact %.0f ns (off by %.2f%%)", 100*q, got, want, 100*math.Abs(got-want)/want)
		}
	}
	if got, want := h.mean(), mean(exact); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("mean %v, want %v", got, want)
	}
	// Merging two halves gives the same summary as one pass.
	var a, b hist
	for i, v := range exact {
		if i%2 == 0 {
			a.add(int64(v))
		} else {
			b.add(int64(v))
		}
	}
	a.merge(&b)
	if a.quantile(0.95) != h.quantile(0.95) || a.n != h.n {
		t.Errorf("merged summary differs from single-pass summary")
	}
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func TestHistIndexBoundsRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<39 + 12345, 1<<40 - 1, 1 << 45} {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("index of %d out of range: %d", v, i)
		}
		lo, width := histBounds(i)
		c := float64(v)
		if v >= 1<<histMaxExp {
			c = 1<<histMaxExp - 1
		}
		if c < lo || c >= lo+width {
			t.Errorf("%d landed in bucket %d = [%v, %v)", v, i, lo, lo+width)
		}
		if lo >= histSub && width/lo > 1.0/histSub {
			t.Errorf("bucket %d is %.3f%% wide", i, 100*width/lo)
		}
	}
}

// Python: statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
}

// The same seed gives the same stream; another seed another stream.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	spec := specOf(t, "engine_cold")
	hash := func(seed int64) uint64 {
		in, err := generateInputs(seed, testScale, spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		return in.streamHash()
	}
	if a, b := hash(5), hash(5); a != b {
		t.Errorf("seed 5 gave streams %x and %x", a, b)
	}
	if a, b := hash(5), hash(6); a == b {
		t.Errorf("seeds 5 and 6 gave the same stream %x", a)
	}
}

// Every client's ingest stream stays monotone per edge across laps, and
// starts after the preload.
func TestIngestStreamIsPerEdgeMonotone(t *testing.T) {
	in, err := generateInputs(3, testScale, specOf(t, "engine_hot"), 2)
	if err != nil {
		t.Fatal(err)
	}
	type edge struct {
		kind          uint8
		road, from, g int
	}
	last := map[edge]float64{}
	for c := range in.clients {
		var cursor, lap int
		laps := 3 * (len(in.clients[c].stripe)/in.spec.batchEvents + 1)
		for i := 0; i < laps; i++ {
			for _, e := range in.nextBatch(c, &cursor, &lap, in.spec.batchEvents, nil) {
				if e.T < in.horizon {
					t.Fatalf("live event at %v is inside the preload horizon %v", e.T, in.horizon)
				}
				k := edge{uint8(e.Kind), int(e.Road), int(e.From), int(e.Gateway)}
				if e.T < last[k] {
					t.Fatalf("client %d: edge %+v goes back in time: %v after %v", c, k, e.T, last[k])
				}
				last[k] = e.T
			}
		}
		if lap < 2 {
			t.Fatalf("client %d never wrapped its stripe (lap %d)", c, lap)
		}
	}
}

func timedParams(t *testing.T, name string, seed int64) runParams {
	return runParams{spec: specOf(t, name), seed: seed, sc: testScale, measure: 250 * time.Millisecond, outDir: t.TempDir()}
}

// Two runs back to back in one process must both report zero failed
// ops: every run boots fresh state and restarts its ingest at lap 0 of
// that state. (Re-running stqload against a live cluster produced 1 181
// ordering errors per run because its replay restarts at lap 0 of a
// store that has already seen lap 0.)
func TestBackToBackRunsReportNoIngestErrors(t *testing.T) {
	for i := 0; i < 2; i++ {
		rec, err := runWorkload(timedParams(t, "routed_hot", 11))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if rec.Failed != 0 || !rec.Correct {
			t.Fatalf("run %d: %d of %d ops failed: %s", i, rec.Failed, rec.Attempted, rec.FirstError)
		}
		if rec.AckEvents <= 0 {
			t.Fatalf("run %d ingested nothing", i)
		}
	}
}

// The durable workload must survive its own crash-image recovery check
// and report the thirteenth metric.
func TestDurableRunRecovers(t *testing.T) {
	rec, err := runWorkload(timedParams(t, "ingest_durable", 12))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 {
		t.Fatalf("%d ops failed: %s", rec.Failed, rec.FirstError)
	}
	for _, d := range endToEnd {
		if _, ok := rec.EndToEnd[d.name]; !ok {
			t.Errorf("ingest_durable did not report %s", d.name)
		}
	}
}

// A deliberately corrupted reference answer must fail the run: the
// oracle check really runs.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	in, err := generateInputs(13, testScale, specOf(t, "engine_hot"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fillReferences(in); err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for i := range in.clients[0].ops {
		if o := &in.clients[0].ops[i]; o.kind != opIngest {
			o.want.Count++
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no query op to corrupt")
	}
	d, err := boot(in, bootOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	res, err := drive(d, runCfg{clients: 2, warmup: 10 * time.Millisecond, slices: 2, sliceDur: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.outcomes[outcomeMismatch] == 0 || res.failed() == 0 {
		t.Fatalf("corrupted reference went unnoticed: outcomes %v", res.outcomes)
	}
	if res.firstErr == nil || !strings.Contains(res.firstErr.Error(), "reference") {
		t.Fatalf("first error does not name the mismatch: %v", res.firstErr)
	}
}

// On the sequential replay the counts a later issue may rest a claim on
// must repeat exactly for the same seed.
func TestSequentialReplayCountsRepeatExactly(t *testing.T) {
	exact := map[string][]string{
		"routed_hot":     {"cluster.rpcs_per_snapshot", "cluster.rpcs_per_static", "cluster.rpcs_per_transient", "cluster.rpcs_per_ingest", "cluster.cells_per_query", "cluster.bytes_per_query", "wire.bytes_per_event", "query.plan_hit_frac", "query.cuts_per_query"},
		"ingest_durable": {"wire.bytes_per_event", "wal.bytes_per_event", "query.plan_hit_frac", "net.req_bytes"},
	}
	for name, metrics := range exact {
		spec := specOf(t, name)
		replay := func() map[string]metric {
			in, err := generateInputs(21, testScale, spec, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := fillReferences(in); err != nil {
				t.Fatal(err)
			}
			rd, err := tracedReplay(in, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			m := map[string]metric{}
			replayLayerMetrics(m, spec, rd)
			return m
		}
		a, b := replay(), replay()
		for _, k := range metrics {
			va, ok := a[k]
			if !ok {
				t.Errorf("%s: %s was not measured", name, k)
				continue
			}
			if va.Value != b[k].Value {
				t.Errorf("%s: %s = %v then %v", name, k, va.Value, b[k].Value)
			}
			if va.Value == 0 && k != "query.plan_hit_frac" {
				t.Errorf("%s: %s is 0", name, k)
			}
		}
		// Scope: cluster.* and wal.* exist only on their workloads.
		for k := range a {
			if strings.HasPrefix(k, "cluster.") && name != "routed_hot" || strings.HasPrefix(k, "wal.") && name != "ingest_durable" {
				t.Errorf("%s reports %s", name, k)
			}
		}
	}
}

// -quick runs timed and traced and leaves nothing behind.
func TestQuickWritesNothing(t *testing.T) {
	out := t.TempDir()
	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	err = run(options{seed: 1, seconds: 10, runs: 5, trace: -1, workload: "engine_cold", quick: true, out: out}, nil)
	os.Stdout = stdout
	devnull.Close()
	if err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("-quick left %d entries in %s, first %s", len(left), out, left[0].Name())
	}
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func resultWith(commit string, ops ...float64) *resultFile {
	rf := &resultFile{Env: envStamp{Commit: commit, GoVersion: "go", GOMAXPROCS: 2, NumCPU: 2, Scale: "full", Seconds: 10, Runs: len(ops)}}
	wr := workloadResult{Name: "engine_hot"}
	for i, v := range ops {
		wr.Runs = append(wr.Runs, runRecord{Workload: "engine_hot", Seed: int64(i), EndToEnd: map[string]metric{
			"ops_per_s":   {Value: v, Unit: "1/s"},
			"failed_frac": {Value: 0, Unit: "frac"},
		}})
	}
	wr.EndToEnd = summarise(wr.Runs, func(r runRecord) map[string]metric { return r.EndToEnd })
	rf.Workloads = []workloadResult{wr}
	return rf
}

func TestCompareVerdicts(t *testing.T) {
	def, _ := endToEndDef("ops_per_s")
	sum := func(rf *resultFile) summary { return rf.Workloads[0].EndToEnd["ops_per_s"] }
	base := resultWith("a", 1000, 1010, 990, 1005, 995)
	cases := []struct {
		cand *resultFile
		want verdict
	}{
		{resultWith("b", 1000, 1012, 992, 1003, 996), verdictOK},
		{resultWith("b", 700, 710, 690, 705, 695), verdictRegression},
		{resultWith("b", 1200, 1210, 1190, 1205, 1195), verdictOK}, // better is never a regression
		{resultWith("b", 600, 1400, 990, 1200, 800), verdictUnresolved},
	}
	for i, c := range cases {
		if got, _ := judge(def, sum(base), sum(c.cand)); got != c.want {
			t.Errorf("case %d: verdict %s, want %s", i, got, c.want)
		}
	}
	ff, _ := endToEndDef("failed_frac")
	if got, _ := judge(ff, summary{Median: 0}, summary{Median: 0.001}); got != verdictRegression {
		t.Errorf("any increase of failed_frac must be a regression, got %s", got)
	}

	var sb strings.Builder
	regressed, err := compareResults(&sb, base, cases[1].cand)
	if err != nil || !regressed {
		t.Errorf("compareResults: regressed=%v err=%v\n%s", regressed, err, sb.String())
	}
	other := resultWith("b", 1000, 1010, 990, 1005, 995)
	other.Env.GOMAXPROCS = 8
	if _, err := compareResults(&sb, base, other); err == nil {
		t.Errorf("results stamped with different GOMAXPROCS were compared")
	}
}

// BENCHMARK.json must list exactly what the harness prints.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []m `json:"end_to_end"`
		PerLayer   []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", bj.RunSeconds, defaultSeconds)
	}
	driven := drivenWorkloads()
	if len(bj.Workloads) != len(driven) {
		t.Fatalf("%d workloads listed, harness drives %d", len(bj.Workloads), len(driven))
	}
	for i, w := range driven {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q, harness %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	want := contractEndToEnd()
	if len(bj.EndToEnd) != len(want) {
		t.Fatalf("%d end-to-end metrics listed, harness prints %d", len(bj.EndToEnd), len(want))
	}
	for i, d := range want {
		g := bj.EndToEnd[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != better(d.higher) || g.Bound == nil || *g.Bound != d.bound {
			t.Errorf("end-to-end %d: listed %+v, harness %+v", i, g, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, harness prints %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := bj.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better(layerHigher[d.name]) || g.Bound != nil {
			t.Errorf("per-layer %d: listed %+v, harness %+v", i, g, d)
		}
	}
}
