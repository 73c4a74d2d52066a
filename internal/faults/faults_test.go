package faults

import (
	"maps"
	"testing"

	"repro/internal/planar"
)

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{SensorCrash: -0.1},
		{SensorCrash: 1.5},
		{LinkDead: 2},
		{DropProb: -1},
		{DropProb: 1},
		{MaxRetries: -1},
		{Windows: []Window{{Start: 10, End: 5}}},
		{Windows: []Window{{Start: 0, End: 5, Frac: 2}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v) accepted", i, s)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
	ok := Spec{Seed: 1, SensorCrash: 0.1, LinkDead: 0.05, DropProb: 0.2, MaxRetries: 3,
		Windows: []Window{{Start: 100, End: 200, Frac: 0.3}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestCompileDeterministic(t *testing.T) {
	spec := Spec{Seed: 7, SensorCrash: 0.2, LinkDead: 0.1, DropProb: 0.3, MaxRetries: 2,
		Windows: []Window{{Start: 10, End: 20, Frac: 0.5}}}
	a, err := Compile(spec, 200, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(spec, 200, 300)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 200; v++ {
		for _, tm := range []float64{0, 15} {
			if a.NodeDown(planar.NodeID(v), tm) != b.NodeDown(planar.NodeID(v), tm) {
				t.Fatalf("node %d at t=%v differs across identical compiles", v, tm)
			}
		}
	}
	_, la := a.ActiveAt(0)
	_, lb := b.ActiveAt(0)
	if !maps.Equal(la, lb) {
		t.Fatal("live links differ across identical compiles")
	}
	da, db := a.NewDropStream(), b.NewDropStream()
	for i := 0; i < 1000; i++ {
		if da() != db() {
			t.Fatalf("drop stream diverges at delivery %d", i)
		}
	}
	// A different seed should produce a different plan (overwhelmingly).
	spec.Seed = 8
	c, err := Compile(spec, 200, 300)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := 0; v < 200 && same; v++ {
		same = a.NodeDown(planar.NodeID(v), 0) == c.NodeDown(planar.NodeID(v), 0)
	}
	if same {
		t.Error("seeds 7 and 8 produced identical crash sets")
	}
}

func TestCompileRates(t *testing.T) {
	plan, err := Compile(Spec{Seed: 3, SensorCrash: 0.1, LinkDead: 0.1}, 5000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if n := plan.DeadNodesAt(0); n < 400 || n > 600 {
		t.Errorf("crashed %d of 5000 at rate 0.1", n)
	}
	_, links := plan.ActiveAt(0)
	if dead := 5000 - len(links); dead < 400 || dead > 600 {
		t.Errorf("dead links %d of 5000 at rate 0.1", dead)
	}
}

func TestWindowsAndImmortal(t *testing.T) {
	spec := Spec{Seed: 5, SensorCrash: 0.5, Windows: []Window{{Start: 100, End: 200, Frac: 1}}}
	immortal := planar.NodeID(17)
	plan, err := Compile(spec, 100, 0, immortal)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NodeDown(immortal, 150) {
		t.Error("immortal node reported down")
	}
	// Frac 1 window: every mortal node is down inside the window only.
	for v := 0; v < 100; v++ {
		id := planar.NodeID(v)
		if id == immortal {
			continue
		}
		if !plan.NodeDown(id, 150) {
			t.Fatalf("node %d up inside a Frac=1 window", v)
		}
		if plan.NodeDown(id, 250) != plan.NodeDown(id, 50) {
			t.Fatalf("node %d outage differs outside the window", v)
		}
	}
	crashed := plan.DeadNodesAt(50) // outside the window: crash-stop only
	if got := plan.DeadNodesAt(150); got != 99 || crashed >= got {
		t.Errorf("dead at 150 = %d (crashed %d), want 99", got, crashed)
	}
	nodes, _ := plan.ActiveAt(150)
	if len(nodes) != 1 || !nodes[immortal] {
		t.Errorf("active at 150 = %v, want only the immortal node", nodes)
	}
	nodes, links := plan.ActiveAt(250)
	if len(nodes) != 100-crashed {
		t.Errorf("active outside window = %d, want %d", len(nodes), 100-crashed)
	}
	if len(links) != 0 {
		t.Errorf("links map %v for an edgeless graph", links)
	}
}

// TestDeadNodesAtOverlappingWindows: a sensor independently sampled
// into two overlapping windows must count once, not once per window.
func TestDeadNodesAtOverlappingWindows(t *testing.T) {
	const n = 50
	plan, err := Compile(Spec{Seed: 11, Windows: []Window{
		{Start: 0, End: 100, Frac: 1},
		{Start: 50, End: 150, Frac: 1},
	}}, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.DeadNodesAt(75); got != n {
		t.Errorf("DeadNodesAt(75) = %d, want %d (every node down exactly once)", got, n)
	}
	// A crashed node inside both windows also counts once.
	plan, err = Compile(Spec{Seed: 11, SensorCrash: 1, Windows: []Window{
		{Start: 0, End: 100, Frac: 1},
		{Start: 50, End: 150, Frac: 1},
	}}, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.DeadNodesAt(75); got != n {
		t.Errorf("DeadNodesAt(75) with full crash = %d, want %d", got, n)
	}
}

// TestNodeDownInHorizon: interval fault evaluation must see a window
// anywhere inside the closed horizon, with NodeDownIn(v, t, t)
// degenerating to NodeDown(v, t).
func TestNodeDownInHorizon(t *testing.T) {
	const n = 20
	plan, err := Compile(Spec{Seed: 13, Windows: []Window{{Start: 100, End: 200, Frac: 1}}}, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := planar.NodeID(3)
	cases := []struct {
		t1, t2 float64
		down   bool
	}{
		{0, 50, false},    // wholly before the window
		{0, 100, true},    // horizon end touches window start
		{0, 300, true},    // horizon spans the window
		{150, 160, true},  // horizon inside the window
		{199, 250, true},  // horizon starts inside the window
		{200, 300, false}, // window is half-open: t=200 is up again
	}
	for _, c := range cases {
		if got := plan.NodeDownIn(v, c.t1, c.t2); got != c.down {
			t.Errorf("NodeDownIn(v, %v, %v) = %v, want %v", c.t1, c.t2, got, c.down)
		}
	}
	for _, tm := range []float64{0, 99, 100, 150, 199, 200, 300} {
		if plan.NodeDownIn(v, tm, tm) != plan.NodeDown(v, tm) {
			t.Errorf("NodeDownIn(v, %v, %v) disagrees with NodeDown", tm, tm)
		}
	}
	// ActiveIn excludes every sensor down anywhere in the horizon.
	nodes, _ := plan.ActiveIn(50, 150)
	if len(nodes) != 0 {
		t.Errorf("ActiveIn(50, 150) kept %d nodes, want 0", len(nodes))
	}
	nodes, _ = plan.ActiveIn(200, 300)
	if len(nodes) != n {
		t.Errorf("ActiveIn(200, 300) kept %d nodes, want %d", len(nodes), n)
	}
}

func TestNoDropStreamWithoutDropProb(t *testing.T) {
	plan, err := Compile(Spec{Seed: 1}, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NewDropStream() != nil {
		t.Error("drop stream created for DropProb 0")
	}
	if plan.MaxRetries() != 0 {
		t.Errorf("retries = %d", plan.MaxRetries())
	}
}
