package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// envStamp records where and how a result was taken. -compare refuses
// to compare results whose stamps differ in anything but Commit.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"` // quick | full
	Seconds    int    `json:"seconds"`
	Runs       int    `json:"runs"`
}

func stampEnv(seed int64, sc scale, seconds, runs int) envStamp {
	return envStamp{
		Commit: gitCommit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), Seed: seed, Scale: sc.name, Seconds: seconds, Runs: runs,
	}
}

// gitCommit is the checked-out commit, or "unknown" outside a git
// checkout (the driver's checkouts are plain directories).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// summary condenses one metric over the runs of a workload.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// quartiles follows Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what results are judged with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarise(runs []runRecord, pick func(runRecord) map[string]metric) map[string]summary {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for name, m := range pick(r) {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]summary{}
	for name, v := range vals {
		q1, _, q3 := quartiles(v)
		out[name] = summary{Median: median(v), Q1: q1, Q3: q3, Unit: units[name], N: len(v)}
	}
	return out
}

// workloadResult is every run of one workload plus their summaries.
type workloadResult struct {
	Name     string             `json:"name"`
	Why      string             `json:"why"`
	Runs     []runRecord        `json:"runs"`
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]summary `json:"per_layer"`
}

// resultFile is what a full invocation writes and -compare reads.
type resultFile struct {
	Env       envStamp         `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

func (rf *resultFile) write(path string) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// printRecord prints every metric of a run by name with its unit, in
// the declared order, with sample counts beside percentiles.
func printRecord(w io.Writer, r *runRecord) {
	kind := "timed"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  stream %s  attempted %d  failed %d\n", r.Workload, r.Seed, kind, r.StreamHash, r.Attempted, r.Failed)
	if r.FirstError != "" {
		fmt.Fprintf(w, "   first error: %s\n", r.FirstError)
	}
	line := func(name string, m metric, ok bool) {
		if !ok {
			return
		}
		if m.Samples > 0 {
			fmt.Fprintf(w, "   %-36s %16.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "   %-36s %16.4f %s\n", name, m.Value, m.Unit)
		}
	}
	for _, d := range endToEnd {
		m, ok := r.EndToEnd[d.name]
		line(d.name, m, ok)
	}
	for _, d := range perLayer {
		m, ok := r.PerLayer[d.name]
		line(d.name, m, ok)
	}
}
