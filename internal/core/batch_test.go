package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/planar"
	"repro/internal/roadnet"
)

// TestValidateBatchRefusesAsRecordBatch: ValidateBatch is phase 1 of a
// batch spread over several stores, so on twin stores it must refuse
// what RecordBatch refuses, in the same words, and accept what it
// accepts; it must change nothing; and once its pooled scratch is warm
// it must allocate nothing.
func TestValidateBatchRefusesAsRecordBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	w, err := roadnet.GridCity(roadnet.GridOpts{NX: 4, NY: 4, Spacing: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	gw := w.Gateways[0]
	road := w.Star.Incident(gw)[0]
	u, v := w.TrackedEnds(road)
	stranger := planar.NodeID(0)
	for stranger == u || stranger == v {
		stranger++
	}
	// road's U→V form holds 100, its V→U form 50, gw's entries 100; gw
	// has no exit yet.
	seed := []Event{EnterEvent(gw, 100), MoveEvent(road, u, 100), MoveEvent(road, v, 50)}
	twin := func() *Store {
		st := NewStore(w)
		if err := st.RecordBatch(seed); err != nil {
			t.Fatal(err)
		}
		return st
	}
	regress := MoveEvent(road, u, 99)
	cases := []struct {
		name  string
		batch []Event
		// want is a substring of the refusal; "" means the batch is valid.
		want string
	}{
		{"unknown kind", []Event{{T: 200, Kind: 7}}, "unknown kind 7"},
		{"NaN time", []Event{MoveEvent(road, u, math.NaN())}, "timestamp NaN is not finite"},
		{"infinite time", []Event{EnterEvent(gw, math.Inf(1))}, "timestamp +Inf is not finite"},
		{"negative road", []Event{MoveEvent(-1, u, 200)}, "road -1 out of range"},
		{"road past the roads", []Event{MoveEvent(planar.EdgeID(w.NumRoads()), u, 200)}, "out of range"},
		{"not an endpoint", []Event{MoveEvent(road, stranger, 200)}, "is not an endpoint"},
		{"gateway out of range", []Event{LeaveEvent(planar.NodeID(w.NumJunctions()), 200)}, "out of range"},
		{"structure before order", []Event{regress, {T: 200, Kind: 9}}, "batch event 1: unknown kind 9"},
		{"in-batch regression on a road", []Event{MoveEvent(road, u, 300), MoveEvent(road, v, 60), MoveEvent(road, u, 250)}, "batch event 2 at 250 precedes last crossing 300 on road"},
		{"in-batch regression on a world edge", []Event{EnterEvent(gw, 300), LeaveEvent(gw, 1), EnterEvent(gw, 299)}, "batch event 2 at 299 precedes last crossing 300 on the world edge"},
		{"regression against the store", []Event{MoveEvent(road, v, 60), regress}, "batch event 1 at 99 precedes last crossing 100"},
		{"valid, directions repeated", []Event{
			MoveEvent(road, u, 200), MoveEvent(road, v, 50), MoveEvent(road, u, 200),
			EnterEvent(gw, 150), LeaveEvent(gw, 1), EnterEvent(gw, 151), LeaveEvent(gw, 1),
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			validated, recorded := twin(), twin()
			before := observe(validated)
			verr := validated.ValidateBatch(tc.batch)
			if after := observe(validated); !after.equal(before) {
				t.Errorf("ValidateBatch changed the store: %+v -> %+v", before, after)
			}
			rerr := recorded.RecordBatch(tc.batch)
			if tc.want == "" {
				if verr != nil || rerr != nil {
					t.Fatalf("valid batch refused: ValidateBatch %v, RecordBatch %v", verr, rerr)
				}
				return
			}
			if rerr == nil || !strings.Contains(rerr.Error(), tc.want) {
				t.Fatalf("RecordBatch = %v, want a refusal containing %q", rerr, tc.want)
			}
			if verr == nil || verr.Error() != rerr.Error() {
				t.Fatalf("ValidateBatch = %v, RecordBatch = %v", verr, rerr)
			}
		})
	}

	t.Run("allocs", func(t *testing.T) {
		// The race detector makes sync.Pool drop a quarter of what it is
		// given, on purpose.
		var probe sync.Pool
		for i := 0; i < 64; i++ {
			probe.Put(new(int))
			if probe.Get() == nil {
				t.Skip("sync.Pool does not retain here (race detector): pooled scratch cannot be allocation-free")
			}
		}
		st := twin()
		batch := make([]Event, 0, 64)
		for i := 0; len(batch) < cap(batch); i++ {
			e := planar.EdgeID(i % w.NumRoads())
			a, b := w.TrackedEnds(e)
			batch = append(batch, MoveEvent(e, a, float64(200+i)), MoveEvent(e, b, float64(200+i)))
		}
		if err := st.ValidateBatch(batch); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = st.ValidateBatch(batch) }); allocs != 0 {
			t.Errorf("ValidateBatch of %d events allocates %v times a call, want 0", len(batch), allocs)
		}
	})
}

// storeView is what a write may change: the event count, the clock and
// every tracker pointer.
type storeView struct {
	events   int
	clock    float64
	trackers []*Tracker
}

func observe(s *Store) storeView {
	v := storeView{events: s.NumEvents(), clock: s.Clock()}
	for i := range s.roads {
		v.trackers = append(v.trackers, s.roads[i].Load())
	}
	return v
}

func (a storeView) equal(b storeView) bool {
	return a.events == b.events && a.clock == b.clock && slices.Equal(a.trackers, b.trackers)
}
