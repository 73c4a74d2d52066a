package worldio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mobility"
	"repro/internal/roadnet"
)

func testSpec() CitySpec {
	g := roadnet.GridOpts{NX: 8, NY: 8, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.1}
	return CitySpec{Kind: "grid", Seed: 5, Grid: &g}
}

func TestRoundTrip(t *testing.T) {
	spec := testSpec()
	w, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := mobility.Generate(w, mobility.Opts{
		Objects: 20, Horizon: 5000, TripsPerObject: 3,
		MeanSpeed: 10, MeanPause: 100, LeaveProb: 0.5},
		rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, spec, wl); err != nil {
		t.Fatal(err)
	}
	w2, wl2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if w2.NumJunctions() != w.NumJunctions() || w2.NumRoads() != w.NumRoads() {
		t.Error("rebuilt world differs")
	}
	if len(wl2.Events) != len(wl.Events) || wl2.Objects != wl.Objects || wl2.Horizon != wl.Horizon {
		t.Fatal("workload metadata differs")
	}
	for i := range wl.Events {
		if wl.Events[i] != wl2.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, wl.Events[i], wl2.Events[i])
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := (CitySpec{Kind: "grid", Seed: 1}).Build(); err == nil {
		t.Error("grid without options accepted")
	}
	if _, err := (CitySpec{Kind: "hexagonal", Seed: 1}).Build(); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := (CitySpec{Kind: "radial", Seed: 1}).Build(); err == nil {
		t.Error("radial without options accepted")
	}
	if _, err := (CitySpec{Kind: "random", Seed: 1}).Build(); err == nil {
		t.Error("random without options accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := Load(strings.NewReader(
		`{"city":{"kind":"grid","seed":1,"grid":{"NX":4,"NY":4,"Spacing":10}},` +
			`"horizon":10,"objects":1,"events":[{"obj":0,"t":1,"kind":"warp","at":0}]}`)); err == nil {
		t.Error("unknown event kind accepted")
	}
}

func TestFormatVersioning(t *testing.T) {
	spec := testSpec()
	w, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	wl := &mobility.Workload{W: w, Horizon: 100, Objects: 0}
	var buf bytes.Buffer
	if err := Save(&buf, spec, wl); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	if !strings.Contains(saved, `"version":1`) {
		t.Fatalf("Save did not stamp the format version: %s", saved[:80])
	}

	// Legacy v0: the same bundle with the version field stripped is
	// refused, and the error says why.
	legacy := strings.Replace(saved, `"version":1,`, "", 1)
	if strings.Contains(legacy, "version") {
		t.Fatalf("failed to build a legacy bundle")
	}
	if _, _, err := Load(strings.NewReader(legacy)); err == nil || !strings.Contains(err.Error(), "no format version") {
		t.Fatalf("version-less v0 bundle not rejected descriptively: %v", err)
	}

	// Future version: descriptive rejection.
	future := strings.Replace(saved, `"version":1,`, `"version":99,`, 1)
	if _, _, err := Load(strings.NewReader(future)); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future version not rejected descriptively: %v", err)
	}
	negative := strings.Replace(saved, `"version":1,`, `"version":-1,`, 1)
	if _, _, err := Load(strings.NewReader(negative)); err == nil {
		t.Fatalf("negative version accepted")
	}

	// Truncated input: descriptive error, no partial decode.
	for _, cut := range []int{0, 1, len(saved) / 2, len(saved) - 2} {
		if _, _, err := Load(strings.NewReader(saved[:cut])); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncation at %d not rejected descriptively: %v", cut, err)
		}
	}

	// Version-less JSON that is not a bundle at all.
	if _, _, err := Load(strings.NewReader(`{"horizon": 3}`)); err == nil || !strings.Contains(err.Error(), "not a worldio bundle") {
		t.Fatalf("non-bundle JSON not rejected descriptively: %v", err)
	}
}

func TestOtherCityKindsRoundTrip(t *testing.T) {
	specs := []CitySpec{
		{Kind: "radial", Seed: 2, Radial: &roadnet.RadialOpts{Rings: 3, Spokes: 8, RingGap: 30}},
		{Kind: "random", Seed: 3, Random: &roadnet.RandomOpts{N: 40, Size: 300, RemoveFrac: 0.2}},
	}
	for _, spec := range specs {
		w, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		var buf bytes.Buffer
		wl := &mobility.Workload{W: w, Horizon: 100, Objects: 0}
		if err := Save(&buf, spec, wl); err != nil {
			t.Fatal(err)
		}
		w2, _, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if w2.NumJunctions() != w.NumJunctions() {
			t.Errorf("%s: rebuild differs", spec.Kind)
		}
	}
}
