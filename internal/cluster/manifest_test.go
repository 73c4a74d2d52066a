package cluster

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/roadnet"
)

func testSpec() WorldSpec {
	opts := roadnet.DefaultGridOpts()
	opts.NX, opts.NY = 6, 6
	return GridSpec(opts, 42)
}

func TestManifestPinsDeterministicLayout(t *testing.T) {
	a, _, layA, err := NewManifest(testSpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _, layB, err := NewManifest(testSpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.LayoutHash != b.LayoutHash {
		t.Fatalf("layout hash not deterministic: %#x vs %#x", a.LayoutHash, b.LayoutHash)
	}
	if len(layA.CellOfJunction) != len(layB.CellOfJunction) {
		t.Fatalf("layouts differ in size: %d vs %d", len(layA.CellOfJunction), len(layB.CellOfJunction))
	}
	// A different cell count or world seed must produce a different pin.
	c, _, _, err := NewManifest(testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.LayoutHash == a.LayoutHash {
		t.Fatal("2-cell layout hashed identically to 4-cell layout")
	}
	spec := testSpec()
	spec.Seed++
	d, _, _, err := NewManifest(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.LayoutHash == a.LayoutHash {
		t.Fatal("different world seed hashed identically")
	}
}

func TestManifestSaveLoadMaterialize(t *testing.T) {
	man, world, lay, err := NewManifest(testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := man.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if *loaded != *man {
		t.Fatalf("loaded manifest %+v, want %+v", loaded, man)
	}
	w2, lay2, err := loaded.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if w2.NumJunctions() != world.NumJunctions() || w2.NumRoads() != world.NumRoads() {
		t.Fatalf("materialized world %d/%d junctions/roads, want %d/%d",
			w2.NumJunctions(), w2.NumRoads(), world.NumJunctions(), world.NumRoads())
	}
	for i, own := range lay.CellOfJunction {
		if lay2.CellOfJunction[i] != own {
			t.Fatalf("junction %d owned by %d after reload, want %d", i, lay2.CellOfJunction[i], own)
		}
	}
}

func TestManifestRejectsDriftedPin(t *testing.T) {
	man, _, _, err := NewManifest(testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tampered := *man
	tampered.LayoutHash ^= 1
	if _, _, err := tampered.Materialize(); err == nil {
		t.Fatal("materialize accepted a drifted layout hash")
	} else if !strings.Contains(err.Error(), "layout hash") {
		t.Fatalf("err %q does not mention the layout hash", err)
	}
}

func TestManifestRejectsStructurallyInvalid(t *testing.T) {
	base, _, _, err := NewManifest(testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(m *Manifest)
		names  string // what the error must mention, when not empty
	}{
		{"bad-version", func(m *Manifest) { m.Version = 99 }, ""},
		{"zero-cells", func(m *Manifest) { m.Cells = 0 }, ""},
		{"negative-cells", func(m *Manifest) { m.Cells = -1 }, ""},
		{"unknown-world-kind", func(m *Manifest) { m.World.Kind = "hexes" }, "kind"},
		{"huge-grid", func(m *Manifest) { m.World.NX, m.World.NY = 1<<11, 1<<10 }, "nx×ny"},
		{"overflowing-grid", func(m *Manifest) { m.World.NX, m.World.NY = 1<<62, 1<<62 }, "nx×ny"},
		{"nan-spacing", func(m *Manifest) { m.World.Spacing = math.NaN() }, "spacing"},
		{"zero-spacing", func(m *Manifest) { m.World.Spacing = 0 }, "spacing"},
		{"negative-spacing", func(m *Manifest) { m.World.Spacing = -1 }, "spacing"},
		{"infinite-extent", func(m *Manifest) { m.World.Spacing = math.MaxFloat64 }, "spacing"},
		{"overflowing-geometry", func(m *Manifest) { m.World.Spacing = 1e300 }, "spacing"},
		{"nan-jitter", func(m *Manifest) { m.World.Jitter = math.NaN() }, "jitter"},
		{"remove-frac-above-1", func(m *Manifest) { m.World.RemoveFrac = 1.5 }, "remove_frac"},
		{"negative-curve-frac", func(m *Manifest) { m.World.CurveFrac = -0.1 }, "curve_frac"},
		{"nan-curve-frac", func(m *Manifest) { m.World.CurveFrac = math.NaN() }, "curve_frac"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := *base
			tc.mutate(&m)
			if _, _, err := m.Materialize(); err == nil {
				t.Fatal("materialize accepted invalid manifest")
			} else if !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("err %q does not name %s", err, tc.names)
			}
		})
	}
	if _, _, _, err := NewManifest(testSpec(), 0); err == nil {
		t.Fatal("NewManifest accepted zero cells")
	}
}

// FuzzManifestMaterialize feeds cluster.json bytes through the decoder
// LoadManifest uses and into Materialize: the outcome is an error or a
// world whose layout hashes to the manifest's pin — never a panic or a
// hang. Worlds over fuzzMaxJunctions pass validate but are not built:
// their cost is the size asked for, not a fault. `make check` runs a
// 10s smoke.
func FuzzManifestMaterialize(f *testing.F) {
	const fuzzMaxJunctions = 1024
	for _, cells := range []int{1, 3} {
		spec := testSpec()
		spec.NX, spec.NY = 5, 4
		m, _, _, err := NewManifest(spec, cells)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"cells":2,"world":{"kind":"grid","nx":4,"ny":4,"spacing":-1}}`))
	f.Add([]byte(`{"version":1,"cells":2,"world":{"kind":"grid","nx":4294967296,"ny":4294967296,"spacing":1}}`))
	f.Add([]byte(`{"version":1,"cells":99,"world":{"kind":"grid","nx":3,"ny":3,"spacing":1e300,"jitter":0.49}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if m.World.validate() == nil && m.World.NX*m.World.NY > fuzzMaxJunctions {
			return
		}
		w, lay, err := m.Materialize()
		if err != nil {
			return
		}
		if w == nil || lay == nil || HashLayout(lay) != m.LayoutHash {
			t.Fatalf("Materialize accepted %s without a world whose layout matches its pin", data)
		}
	})
}
