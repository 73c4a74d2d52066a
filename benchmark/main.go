// Command benchmark is the one harness for the whole request path of
// this repository: it boots each deployment in-process the way
// cmd/stqd and cmd/stqrouter do, drives it with a seeded closed-loop
// generator, checks every answer against a reference, and prints every
// end-to-end and per-layer metric by name with its unit. README.md has
// the definitions.
//
//	benchmark -seed 1                        all workloads, one timed and one traced run each, writes out/result.json
//	benchmark -seed 1 -runs 5 -workload served_hot,routed_hot
//	benchmark -quick                         smoke size, writes nothing
//	benchmark -compare a.json b.json         deltas of b against a, non-zero exit on a regression
//	benchmark --workload W --seed N --seconds S --trace 0|1
//	                                         a single run: its result is also the last line, as BENCHMARK.json asks
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the command-line flags.
type options struct {
	workload string
	trace    int
	seed     int64
	seconds  int
	runs     int
	quick    bool
	out      string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "comma-separated workloads (default all)")
	flag.IntVar(&o.trace, "trace", -1, "0 = timed runs only (end-to-end metrics), 1 = traced runs only (per-layer metrics), default both")
	flag.Int64Var(&o.seed, "seed", 1, "request-stream seed; run r uses seed+r")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measured seconds per run (split into slices)")
	flag.IntVar(&o.runs, "runs", 1, "runs per workload")
	flag.BoolVar(&o.quick, "quick", false, "smoke size: 8×8 world, 1 s phases, one run, writes nothing")
	flag.StringVar(&o.out, "out", "", "directory for the result file, span files and scratch state (default benchmark/out)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare base.json candidate.json")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned when a run completed but some op failed, was
// refused, or was answered differently from the reference.
type errIncorrect struct{ rec *runRecord }

func (e errIncorrect) Error() string {
	return fmt.Sprintf("%s seed %d: %d of %d ops failed (first: %s)", e.rec.Workload, e.rec.Seed, e.rec.Failed, e.rec.Attempted, e.rec.FirstError)
}

func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		base, err := readResultFile(args[0])
		if err != nil {
			return err
		}
		cand, err := readResultFile(args[1])
		if err != nil {
			return err
		}
		regressed, err := compareResults(os.Stdout, base, cand)
		if err != nil {
			return err
		}
		if regressed {
			return fmt.Errorf("regression")
		}
		return nil
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	sc := fullScale
	if o.quick {
		sc, o.seconds, o.runs = quickScale, 1, 1
	}
	out := o.out
	if out == "" {
		out = defaultOutDir()
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	measure := time.Duration(o.seconds) * time.Second

	specs := workloads
	if o.workload != "" {
		specs = nil
		for _, name := range strings.Split(o.workload, ",") {
			spec, ok := workloadByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			specs = append(specs, spec)
		}
	}
	modes := []bool{false, true}
	switch o.trace {
	case 0:
		modes = []bool{false}
	case 1:
		modes = []bool{true}
	}
	rf := &resultFile{Env: stampEnv(o.seed, sc, o.seconds, o.runs)}
	fmt.Printf("env: %+v\n", rf.Env)
	var incorrect error
	var last *runRecord
	records := 0
	for _, spec := range specs {
		wr := workloadResult{Name: spec.name, Why: spec.why}
		for r := 0; r < o.runs; r++ {
			for _, traced := range modes {
				rec, err := runWorkload(runParams{spec: spec, seed: o.seed + int64(r), sc: sc, measure: measure, traced: traced, outDir: out, writeSpan: !o.quick && r == 0})
				if err != nil {
					return fmt.Errorf("%s: %w", spec.name, err)
				}
				printRecord(os.Stdout, rec)
				if !rec.Correct && incorrect == nil {
					incorrect = errIncorrect{rec}
				}
				wr.Runs = append(wr.Runs, *rec)
				last = rec
				records++
			}
		}
		wr.EndToEnd = summarise(wr.Runs, func(r runRecord) map[string]metric { return r.EndToEnd })
		wr.PerLayer = summarise(wr.Runs, func(r runRecord) map[string]metric { return r.PerLayer })
		rf.Workloads = append(rf.Workloads, wr)
	}
	if !o.quick {
		path := filepath.Join(out, "result.json")
		if err := rf.write(path); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	// A single run is what BENCHMARK.json's command performs: its result
	// is also the last line of standard output.
	if records == 1 {
		if err := printContractLine(last); err != nil {
			return err
		}
	}
	return incorrect
}

// printContractLine prints the one JSON object the BENCHMARK.json
// contract asks for: a timed run carries every end-to-end metric of the
// contract, a traced run every per-layer metric (0 where the metric does
// not exist on the workload).
func printContractLine(rec *runRecord) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if rec.Traced {
		for _, d := range perLayer {
			metrics[d.name] = value{Value: rec.PerLayer[d.name].Value, Unit: d.unit}
		}
	} else {
		for _, d := range contractEndToEnd() {
			m, ok := rec.EndToEnd[d.name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			metrics[d.name] = value{Value: m.Value, Unit: d.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// contractEndToEnd is the end-to-end list of BENCHMARK.json: the
// thirteen of the issue minus the three the contract cannot carry —
// failed_frac is 0 on a correct program (the contract reports
// attempted and failed instead), recover_events_per_s exists on one
// workload only and ingest_p95_us spreads too close to its bound (the
// contract lists both per-layer; perlayer.go).
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.only == "" && d.name != "failed_frac" && d.name != "ingest_p95_us" {
			out = append(out, d)
		}
	}
	return out
}
