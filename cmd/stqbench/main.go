// Command stqbench regenerates the paper's evaluation figures (§5) on the
// synthetic substrate and prints them as text tables. Performance is
// measured by the benchmark/ module, not here.
//
// Usage:
//
//	stqbench -exp all                 # every figure + headline + ablations
//	stqbench -exp fig11a,fig11c      # selected figures
//	stqbench -exp headline -reps 20  # more repetitions
//	stqbench -quick                  # small smoke configuration
//	stqbench -serve :8080 -exp all   # live /metrics + /debug/pprof while running
//
// Experiment IDs: fig11a fig11b fig11c fig11d fig11e fig12a fig12b
// fig13ab fig13cd fig14a fig14b fig14cd cost-model headline
// ablation-greedy ablation-baseline ablation-buffer.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"strings"
	"time"

	stq "repro"
	"repro/internal/experiments"
)

func main() {
	var (
		expList = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		reps    = flag.Int("reps", 0, "repetitions per configuration (0 = config default)")
		queries = flag.Int("queries", 0, "queries per repetition (0 = config default)")
		seed    = flag.Int64("seed", 1, "random seed")
		quick   = flag.Bool("quick", false, "small smoke configuration")
		serve   = flag.String("serve", "", "serve /metrics, /metrics.json and /debug/pprof on this address while running")
	)
	flag.Parse()
	if *serve != "" {
		startMetricsServer(*serve)
	}
	if err := run(*expList, *reps, *queries, *seed, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "stqbench:", err)
		os.Exit(1)
	}
}

// startMetricsServer exposes the live observability registry and pprof
// on addr for profiling a running experiment:
//
//	/metrics       Prometheus text format
//	/metrics.json  expvar-style JSON snapshot
//	/debug/pprof/  net/http/pprof
//
// Instrumentation is enabled as a side effect (a metrics endpoint over a
// disabled registry would read all zeros). The server runs for the life
// of the process.
func startMetricsServer(addr string) {
	stq.EnableObservability()
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := stq.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	http.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := stq.WriteMetricsJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "stqbench: metrics server:", err)
		}
	}()
	fmt.Printf("serving /metrics, /metrics.json, /debug/pprof on %s\n", addr)
}

func run(expList string, reps, queries int, seed int64, quick bool) error {
	cfg := experiments.DefaultConfig()
	if quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Seed = seed
	if reps > 0 {
		cfg.Reps = reps
	}
	if queries > 0 {
		cfg.QueriesPerRep = queries
	}
	fmt.Printf("building environment (city %dx%d, %d objects, %d reps × %d queries)...\n",
		cfg.City.NX, cfg.City.NY, cfg.Mobility.Objects, cfg.Reps, cfg.QueriesPerRep)
	start := time.Now()
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("environment ready in %v: %d junctions, %d roads, %d sensors, %d events\n",
		time.Since(start).Round(time.Millisecond),
		env.W.NumJunctions(), env.W.NumRoads(), env.W.NumSensors(), env.Store.NumEvents())

	want := map[string]bool{}
	all := expList == "all"
	for _, id := range strings.Split(expList, ",") {
		want[strings.TrimSpace(id)] = true
	}
	sel := func(id string) bool { return all || want[id] }

	type figFn struct {
		id  string
		run func() error
	}
	render1 := func(f experiments.Figure, err error) error {
		if err != nil {
			return err
		}
		return experiments.Render(os.Stdout, f)
	}
	render2 := func(a, b experiments.Figure, err error) error {
		if err != nil {
			return err
		}
		if err := experiments.Render(os.Stdout, a); err != nil {
			return err
		}
		return experiments.Render(os.Stdout, b)
	}
	jobs := []figFn{
		{"fig11a", func() error { f, err := env.Fig11a(); return render1(f, err) }},
		{"fig11b", func() error { f, err := env.Fig11b(); return render1(f, err) }},
		{"fig11c", func() error { f, err := env.Fig11c(); return render1(f, err) }},
		{"fig11d", func() error { f, err := env.Fig11d(); return render1(f, err) }},
		{"fig11e", func() error { f, err := env.Fig11e(); return render1(f, err) }},
		{"fig12a", func() error { f, err := env.Fig12a(); return render1(f, err) }},
		{"fig12b", func() error { f, err := env.Fig12b(); return render1(f, err) }},
		{"fig13ab", func() error { a, b, err := env.Fig13ab(); return render2(a, b, err) }},
		{"fig13cd", func() error { a, b, err := env.Fig13cd(); return render2(a, b, err) }},
		{"fig14a", func() error { f, err := env.Fig14a(); return render1(f, err) }},
		{"fig14b", func() error { f, err := env.Fig14b(); return render1(f, err) }},
		{"fig14cd", func() error { a, b, err := env.Fig14cd(); return render2(a, b, err) }},
		{"cost-model", func() error {
			rep, err := env.RunCostModel()
			if err != nil {
				return err
			}
			fmt.Printf("\n== cost-model: §4.9 validation ==\nℓ_G = %.2f hops (log₂N = %.0f; small-world when same order)\n",
				rep.EllG, rep.LogN)
			fmt.Println("m     k  area%   predicted  measured  ratio")
			for _, r := range rep.Rows {
				fmt.Printf("%-5d %d  %-6.2f  %-9.1f  %-8.1f  %.2f\n",
					r.M, r.K, r.AreaPct, r.Predicted, r.MeasuredNodes, r.Ratio)
			}
			return nil
		}},
		{"headline", func() error {
			h, err := env.RunHeadline()
			if err != nil {
				return err
			}
			fmt.Printf("\n== headline (abstract summary) ==\n%s\n", h)
			return nil
		}},
		{"ablation-greedy", func() error { f, err := env.AblationGreedy(); return render1(f, err) }},
		{"ablation-baseline", func() error { f, err := env.AblationBaselineScaling(); return render1(f, err) }},
		{"ablation-buffer", func() error { f, err := env.AblationRollingBuffer(); return render1(f, err) }},
	}
	ran := 0
	for _, j := range jobs {
		if !sel(j.id) {
			continue
		}
		t0 := time.Now()
		if err := j.run(); err != nil {
			return fmt.Errorf("%s: %w", j.id, err)
		}
		fmt.Printf("(%s done in %v)\n", j.id, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", expList)
	}
	return nil
}
