package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mobility"
	"repro/internal/roadnet"
	"repro/internal/worldio"
)

// writeBundle saves a small grid city and its workload as stqgen would.
func writeBundle(t *testing.T) string {
	t.Helper()
	g := roadnet.GridOpts{NX: 8, NY: 8, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.1}
	spec := worldio.CitySpec{Kind: "grid", Seed: 5, Grid: &g}
	w, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 60, Horizon: 5000, TripsPerObject: 3,
		MeanSpeed: 10, MeanPause: 100, LeaveProb: 0.5},
		rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := worldio.Save(&buf, spec, wl); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// answerLines keeps the lines that answer a query.
func answerLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		for _, k := range []string{"snapshot:", "static:", "transient:"} {
			if strings.HasPrefix(l, k) {
				lines = append(lines, l)
			}
		}
	}
	return lines
}

// TestStateAnswersAsInMemory: stqquery used to answer through two
// paths, a hand-fed store and engine without -state and the durable
// System with it, and the two printed different answer lines for the
// same query. One path now serves both, so an in-memory run, a run that
// initializes a -state directory and a run that recovers it print the
// same answers.
func TestStateAnswersAsInMemory(t *testing.T) {
	bundle := writeBundle(t)
	state := filepath.Join(t.TempDir(), "state")
	queries := "snapshot 0 0 300 300 2500 0\nstatic 50 50 300 300 1000 3000\ntransient 0 0 250 350 1000 4000\n"
	var want []string
	for i, dir := range []string{"", state, state} {
		var out bytes.Buffer
		o := options{in: bundle, state: dir, kind: "snapshot", sensors: 24, placement: "kdtree", bound: "upper", seed: 3}
		if err := run(&out, strings.NewReader(queries), o); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		got := answerLines(out.String())
		if len(got) != 3 {
			t.Fatalf("run %d answered %d queries, want 3:\n%s", i, len(got), out.String())
		}
		if i == 0 {
			want = got
			continue
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("run %d answers\n%s\nwant (in memory)\n%s", i, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if step := []string{"", "initialized", "recovered"}[i]; !strings.Contains(out.String(), "state "+state+" "+step) {
			t.Errorf("run %d does not say the state was %s:\n%s", i, step, out.String())
		}
	}
}

// TestUnknownNamesRefused: a placement, kind or bound that is not one
// of the names is refused, naming it, before the bundle is read.
func TestUnknownNamesRefused(t *testing.T) {
	base := options{in: filepath.Join(t.TempDir(), "absent.json"), kind: "snapshot", placement: "quadtree", bound: "lower", rect: "0,0,1,1"}
	for _, c := range []struct {
		set  func(*options)
		want string
	}{
		{func(o *options) { o.placement = "hexgrid" }, `unknown placement "hexgrid"`},
		{func(o *options) { o.kind = "dwell" }, `unknown kind "dwell"`},
		{func(o *options) { o.bound = "middle" }, `unknown bound "middle"`},
	} {
		o := base
		c.set(&o)
		var out bytes.Buffer
		if err := run(&out, nil, o); err == nil || err.Error() != c.want {
			t.Errorf("run = %v, want %q", err, c.want)
		}
	}
}
