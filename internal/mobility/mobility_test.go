package mobility

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

func testWorld(t *testing.T, seed int64) *roadnet.World {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := roadnet.GridCity(
		roadnet.GridOpts{NX: 8, NY: 8, Spacing: 50, Jitter: 0.2, RemoveFrac: 0.15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testWorkload(t *testing.T, w *roadnet.World, seed int64) *Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	wl, err := Generate(w, Opts{
		Objects: 50, Horizon: 10000, TripsPerObject: 4,
		MeanSpeed: 10, MeanPause: 200, LeaveProb: 0.6, HotspotBias: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestGenerateBasics(t *testing.T) {
	w := testWorld(t, 1)
	wl := testWorkload(t, w, 2)
	if wl.Objects != 50 {
		t.Errorf("objects = %d", wl.Objects)
	}
	st := wl.Stats()
	if st.Enters != 50 {
		t.Errorf("enters = %d, want 50", st.Enters)
	}
	if st.Leaves > st.Enters {
		t.Errorf("more leaves (%d) than enters (%d)", st.Leaves, st.Enters)
	}
	if st.Moves == 0 {
		t.Fatal("no movement generated")
	}
	// Events strictly time ordered (non-decreasing).
	for i := 1; i < len(wl.Events); i++ {
		if wl.Events[i].T < wl.Events[i-1].T {
			t.Fatal("events out of order")
		}
	}
	// All events within horizon.
	for _, ev := range wl.Events {
		if ev.T < 0 || ev.T > wl.Horizon {
			t.Fatalf("event at %v outside horizon %v", ev.T, wl.Horizon)
		}
	}
}

func TestGenerateEventConsistency(t *testing.T) {
	// Per object: starts with Enter at a gateway; every Move departs from
	// the junction the previous event arrived at; at most one Leave, last.
	w := testWorld(t, 3)
	wl := testWorkload(t, w, 4)
	gws := make(map[planar.NodeID]bool)
	for _, g := range w.Gateways {
		gws[g] = true
	}
	pos := make(map[int]planar.NodeID)
	done := make(map[int]bool)
	for _, ev := range wl.Events {
		if done[ev.Obj] {
			t.Fatal("event after Leave")
		}
		switch ev.Kind {
		case Enter:
			if _, ok := pos[ev.Obj]; ok {
				t.Fatal("double Enter")
			}
			if !gws[ev.At] {
				t.Fatalf("enter at non-gateway %d", ev.At)
			}
			pos[ev.Obj] = ev.At
		case Move:
			cur, ok := pos[ev.Obj]
			if !ok {
				t.Fatal("Move before Enter")
			}
			if ev.From != cur {
				t.Fatalf("object %d moves from %d but is at %d", ev.Obj, ev.From, cur)
			}
			e := w.Star.Edge(ev.Road)
			if e.Other(ev.From) != ev.At {
				t.Fatal("Move arrival inconsistent with road")
			}
			pos[ev.Obj] = ev.At
		case Leave:
			if pos[ev.Obj] != ev.At {
				t.Fatal("Leave from wrong junction")
			}
			if !gws[ev.At] {
				t.Fatalf("leave at non-gateway %d", ev.At)
			}
			done[ev.Obj] = true
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	w := testWorld(t, 5)
	rng := rand.New(rand.NewSource(6))
	if _, err := Generate(w, Opts{Objects: 0, Horizon: 10, MeanSpeed: 1}, rng); err == nil {
		t.Error("zero objects accepted")
	}
	if _, err := Generate(w, Opts{Objects: 1, Horizon: 10, MeanSpeed: 0}, rng); err == nil {
		t.Error("zero speed accepted")
	}
}

func TestOraclePositions(t *testing.T) {
	w := testWorld(t, 7)
	wl := testWorkload(t, w, 8)
	o := NewOracle(wl)
	// Before any event the object is outside.
	first := wl.Events[0]
	if got := o.PositionAt(first.Obj, first.T-1); got != Outside {
		t.Errorf("pre-entry position = %d", got)
	}
	// Replay and spot check positions after each event.
	for _, ev := range wl.Events[:200] {
		want := ev.At
		if ev.Kind == Leave {
			want = Outside
		}
		if got := o.PositionAt(ev.Obj, ev.T); got != want {
			t.Fatalf("position after event = %d, want %d", got, want)
		}
	}
}

func TestOracleCounts(t *testing.T) {
	w := testWorld(t, 9)
	wl := testWorkload(t, w, 10)
	o := NewOracle(wl)
	all := func(planar.NodeID) bool { return true }
	// At horizon end, inside-count = enters − leaves.
	st := wl.Stats()
	if got := o.InsideAt(all, wl.Horizon+1); got != st.Enters-st.Leaves {
		t.Errorf("final occupancy = %d, want %d", got, st.Enters-st.Leaves)
	}
	// Static count over the whole horizon for the whole world is 0
	// (everyone enters after t=0).
	if got := o.StaticCount(all, 0, wl.Horizon); got != 0 {
		t.Errorf("static from t=0 = %d, want 0", got)
	}
	// Transient = net change.
	t1, t2 := wl.Horizon*0.25, wl.Horizon*0.75
	if got := o.TransientCount(all, t1, t2); got != o.InsideAt(all, t2)-o.InsideAt(all, t1) {
		t.Error("transient != net change")
	}
}

func TestFeedIntoRecorder(t *testing.T) {
	w := testWorld(t, 15)
	wl := testWorkload(t, w, 16)
	rec := &countingRecorder{}
	if err := wl.Feed(rec); err != nil {
		t.Fatal(err)
	}
	st := wl.Stats()
	if rec.moves != st.Moves || rec.enters != st.Enters || rec.leaves != st.Leaves {
		t.Errorf("recorder saw %d/%d/%d, stats %d/%d/%d",
			rec.moves, rec.enters, rec.leaves, st.Moves, st.Enters, st.Leaves)
	}
}

// countingRecorder counts the events of every batch by kind and, when
// failAt > 0, refuses its failAt-th batch.
type countingRecorder struct {
	moves, enters, leaves int
	batches, failAt       int
}

func (r *countingRecorder) RecordBatch(events []core.Event) error {
	if r.batches++; r.batches == r.failAt {
		return errors.New("recorder full")
	}
	for _, ev := range events {
		switch ev.Kind {
		case core.EventMove:
			r.moves++
		case core.EventEnter:
			r.enters++
		case core.EventLeave:
			r.leaves++
		}
	}
	return nil
}

// TestFeedReportsRefusedRange: a recorder that refuses its second batch
// fails Feed with the [lo,hi) range of the events that batch held, the
// first batch already applied.
func TestFeedReportsRefusedRange(t *testing.T) {
	wl := &Workload{Events: make([]Event, feedChunk+10)}
	for i := range wl.Events {
		wl.Events[i] = Event{T: float64(i), Kind: Enter, At: 0}
	}
	rec := &countingRecorder{failAt: 2}
	err := wl.Feed(rec)
	if err == nil {
		t.Fatal("Feed swallowed the refusal")
	}
	if want := fmt.Sprintf("feeding events [%d,%d): recorder full", feedChunk, feedChunk+10); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the refused range %q", err, want)
	}
	if rec.enters != feedChunk || rec.batches != 2 {
		t.Errorf("recorder saw %d events in %d batches, want %d in 2", rec.enters, rec.batches, feedChunk)
	}
}
