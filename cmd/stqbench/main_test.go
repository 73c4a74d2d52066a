package main

// The paper's figures as a golden file: `stqbench -exp all -quick` is
// deterministic apart from wall-clock measurements, so with those masked
// its output is pinned in testdata/quick.golden. A change that moves a
// figure fails here; its diff of the golden file is what a reviewer
// reads. Regenerate it with
//
//	go test ./cmd/stqbench -run TestQuickFiguresGolden -update

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this build's output")

// timedSections are the figures whose values are measured times.
var timedSections = []string{"== fig11d:", "== ablation-greedy:"}

var (
	elapsed = regexp.MustCompile(`(done|ready) in [^):]+`)
	speedup = regexp.MustCompile(`speedup=\S+`)
)

// maskTimings replaces every wall-clock value in the quick run's output:
// the `done in` / `ready in` durations, the headline's speedup, and the
// rows of the timed figures, of which only the x column is kept. Their
// separator line, whose width follows the widest timing, becomes one
// dash, and their column header has its padding collapsed.
func maskTimings(out string) string {
	var b strings.Builder
	timed := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "== ") {
			timed = false
			for _, s := range timedSections {
				timed = timed || strings.HasPrefix(line, s)
			}
		} else if fields := strings.Fields(line); timed && len(fields) > 0 && !strings.HasPrefix(line, "x = ") && !strings.HasPrefix(line, "(") {
			switch {
			case strings.HasPrefix(line, "-"):
				line = "-"
			case fields[0] == "x":
				line = strings.Join(fields, "  ")
			default:
				line = fields[0] + "  <timing>"
			}
		}
		line = elapsed.ReplaceAllString(line, "$1 in <timing>")
		line = speedup.ReplaceAllString(line, "speedup=<timing>")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// runQuick runs `-exp all -quick` in process and returns its stdout.
func runQuick(t *testing.T) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	captured := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		captured <- b
	}()
	runErr := run("all", 0, 0, 1, true)
	os.Stdout = stdout
	w.Close()
	out := <-captured
	r.Close()
	if runErr != nil {
		t.Fatalf("stqbench -exp all -quick: %v", runErr)
	}
	return string(out)
}

func TestQuickFiguresGolden(t *testing.T) {
	got := maskTimings(runQuick(t))
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("a paper figure moved: line %d of the quick run is\n\t%q\nwhere %s has\n\t%q\n(rerun with -update once the change is intended, and review the golden diff)", i+1, g, path, w)
		}
	}
}

// TestMaskTimings pins what the mask hides and what it keeps.
func TestMaskTimings(t *testing.T) {
	in := `environment ready in 16ms: 171 junctions
== fig11d: Query execution time vs query size ==
x = query area (% of domain), y = time per query (µs) (median [p25,p75])
x      sampled-6.4%  unsampled
----------------------------------
0.270  0 [0,1]       1.50 [0,2]
(fig11d done in 2ms)

== headline (abstract summary) ==
sensors=25.6%  speedup=3.17x  nodeAccess=-67.65%
== ablation-baseline: Baseline estimator scaling ==
0.800  1                    0.903 [0.896,0.951]`
	want := `environment ready in <timing>: 171 junctions
== fig11d: Query execution time vs query size ==
x = query area (% of domain), y = time per query (µs) (median [p25,p75])
x  sampled-6.4%  unsampled
-
0.270  <timing>
(fig11d done in <timing>)

== headline (abstract summary) ==
sensors=25.6%  speedup=<timing>  nodeAccess=-67.65%
== ablation-baseline: Baseline estimator scaling ==
0.800  1                    0.903 [0.896,0.951]`
	if got := maskTimings(in); got != want {
		t.Fatalf("masked:\n%s\nwant:\n%s", got, want)
	}
}
