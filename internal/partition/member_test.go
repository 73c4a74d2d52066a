package partition_test

// The routing every sharded deployment shares — find each event's
// owner, take the routing lock, validate everywhere, apply everywhere —
// checked once, against members that can
// be told to fail each step. The in-process and the networked set are
// this code over different members.

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/planar"
)

// fakeMember is a real in-memory store whose write half can be told to
// fail, and which counts the calls it receives.
type fakeMember struct {
	*core.Store
	down, badValidate, badApply error
	validated, applied, calls   atomic.Int32
	// enter, when set, is called on entry to RecordBatch.
	enter func()
}

func (m *fakeMember) ValidateBatch(events []core.Event) error {
	m.validated.Add(1)
	if m.down != nil {
		return m.down
	}
	if m.badValidate != nil {
		return m.badValidate
	}
	return m.Store.ValidateBatch(events)
}

func (m *fakeMember) RecordBatch(events []core.Event) error {
	m.calls.Add(1)
	if m.enter != nil {
		m.enter()
	}
	if m.down != nil {
		return m.down
	}
	if m.badApply != nil {
		return m.badApply
	}
	m.applied.Add(1)
	return m.Store.RecordBatch(events)
}

// fakeSet builds a 3-cell set over fake members and picks one road
// (with a valid origin) owned by each cell.
func fakeSet(t *testing.T) (*partition.Set, []*fakeMember, []core.Event) {
	t.Helper()
	w := testWorld(t, 7)
	lay, err := partition.Build(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	fakes := make([]*fakeMember, lay.Cells)
	members := make([]partition.Member, lay.Cells)
	for i := range fakes {
		st := core.NewStore(w)
		fakes[i] = &fakeMember{Store: st}
		members[i] = fakes[i]
	}
	moves := make([]core.Event, lay.Cells)
	for p := range moves {
		moves[p].Road = -1
	}
	for e := 0; e < w.Star.NumEdges(); e++ {
		id := planar.EdgeID(e)
		if p := lay.OwnerOfRoad(id); moves[p].Road < 0 {
			moves[p] = core.MoveEvent(id, w.Star.Edge(id).U, 0)
		}
	}
	for p, mv := range moves {
		if mv.Road < 0 {
			t.Fatalf("cell %d owns no road", p)
		}
	}
	return partition.NewSetOver(w, lay, members), fakes, moves
}

// at returns move p's event stamped with time t.
func at(moves []core.Event, p int, t float64) core.Event {
	ev := moves[p]
	ev.T = t
	return ev
}

func TestSetRoutingOverFakeMembers(t *testing.T) {
	errDown := errors.New("member unavailable")
	errRefused := errors.New("refused")
	cases := []struct {
		name string
		// seedT > 0 first applies one event at that time on member 0.
		seedT float64
		// fault breaks one member before the batch runs.
		fault func(ms []*fakeMember)
		// batch lists (member, time) pairs.
		batch [][2]float64
		// wantIs, wantText describe the error; both empty means success.
		wantIs   error
		wantText string
		// wantValidated, wantApplied are the per-member call counts the
		// batch itself must cause.
		wantValidated, wantApplied [3]int32
		// wantApplyCalls, when set, is the per-member RecordBatch call count.
		wantApplyCalls [3]int32
	}{
		{
			name:          "single member: validated, then applied",
			batch:         [][2]float64{{1, 10}, {1, 20}},
			wantValidated: [3]int32{0, 1, 0}, wantApplied: [3]int32{0, 1, 0},
		},
		{
			name:          "an apply failure after another member applied is asked once more",
			fault:         func(ms []*fakeMember) { ms[1].badApply = errRefused },
			batch:         [][2]float64{{0, 10}, {1, 10}, {2, 10}},
			wantIs:        errRefused,
			wantText:      "member 1: validated sub-batch failed to apply",
			wantValidated: [3]int32{1, 1, 1}, wantApplied: [3]int32{1, 0, 1}, wantApplyCalls: [3]int32{1, 2, 1},
		},
		{
			name:          "several members: validate everywhere, then apply everywhere",
			batch:         [][2]float64{{0, 10}, {2, 5}},
			wantValidated: [3]int32{1, 0, 1}, wantApplied: [3]int32{1, 0, 1},
		},
		{
			name:          "members keep no common clock: a batch behind another member's crossings applies",
			seedT:         100,
			batch:         [][2]float64{{1, 50}, {2, 60}},
			wantValidated: [3]int32{0, 1, 1}, wantApplied: [3]int32{0, 1, 1},
		},
		{
			name:          "a validation refusal applies nothing anywhere",
			fault:         func(ms []*fakeMember) { ms[2].badValidate = errRefused },
			batch:         [][2]float64{{0, 10}, {1, 10}, {2, 10}},
			wantIs:        errRefused,
			wantValidated: [3]int32{1, 1, 1},
		},
		{
			name:          "a real per-edge violation on one member applies nothing anywhere",
			seedT:         100,
			batch:         [][2]float64{{1, 10}, {0, 50}},
			wantText:      "precedes last crossing 100",
			wantValidated: [3]int32{1, 1, 0},
		},
		{
			name:          "an unavailable member fails the batch before anything applies, in phase 1",
			fault:         func(ms []*fakeMember) { ms[1].down = errDown },
			batch:         [][2]float64{{0, 10}, {1, 10}},
			wantIs:        errDown,
			wantValidated: [3]int32{1, 1, 0},
		},
		{
			name:          "an apply failure names the member",
			fault:         func(ms []*fakeMember) { ms[1].badApply = errRefused },
			batch:         [][2]float64{{0, 10}, {1, 10}},
			wantIs:        errRefused,
			wantText:      "member 1: validated sub-batch failed to apply",
			wantValidated: [3]int32{1, 1, 0}, wantApplied: [3]int32{1, 0, 0},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			set, ms, moves := fakeSet(t)
			seeded := 0
			if c.seedT > 0 {
				if err := set.RecordBatch([]core.Event{at(moves, 0, c.seedT)}); err != nil {
					t.Fatal(err)
				}
				ms[0].validated.Store(0)
				ms[0].applied.Store(0)
				seeded = 1
			}
			if c.fault != nil {
				c.fault(ms)
			}
			var batch []core.Event
			for _, mt := range c.batch {
				batch = append(batch, at(moves, int(mt[0]), mt[1]))
			}
			subs, err := set.RecordBatchSplit(batch)

			wantEvents := seeded
			if c.wantIs == nil && c.wantText == "" {
				if err != nil {
					t.Fatalf("batch refused: %v", err)
				}
				for p, sub := range subs {
					for _, ev := range sub {
						if own := set.Layout().OwnerOfRoad(ev.Road); own != p {
							t.Errorf("subs[%d] holds an event of cell %d", p, own)
						}
					}
					wantEvents += len(sub)
				}
				if wantEvents != seeded+len(batch) {
					t.Errorf("sub-batches hold %d events of a %d-event batch", wantEvents-seeded, len(batch))
				}
			} else {
				if err == nil {
					t.Fatal("batch accepted")
				}
				if c.wantIs != nil && !errors.Is(err, c.wantIs) {
					t.Errorf("error %q does not wrap %q", err, c.wantIs)
				}
				if !strings.Contains(err.Error(), c.wantText) {
					t.Errorf("error %q does not mention %q", err, c.wantText)
				}
				// Whatever a failed batch did apply (only the apply-failure
				// case applies anything) was one event per member.
				for _, n := range c.wantApplied {
					wantEvents += int(n)
				}
			}
			for p, m := range ms {
				if got := m.validated.Load(); got != c.wantValidated[p] {
					t.Errorf("member %d validated %d times, want %d", p, got, c.wantValidated[p])
				}
				if got := m.applied.Load(); got != c.wantApplied[p] {
					t.Errorf("member %d applied %d times, want %d", p, got, c.wantApplied[p])
				}
				if got := m.calls.Load(); c.wantApplyCalls != [3]int32{} && got != c.wantApplyCalls[p] {
					t.Errorf("member %d asked to apply %d times, want %d", p, got, c.wantApplyCalls[p])
				}
			}
			if got := set.NumEvents(); got != wantEvents {
				t.Errorf("set holds %d events, want %d", got, wantEvents)
			}
		})
	}
}

// TestSetSingleMemberBatchesShareTheRoutingLock: batches for different
// members must be able to sit inside their members' RecordBatch at the
// same time — each apply below waits for the other to arrive, which an
// exclusive routing lock would never allow.
func TestSetSingleMemberBatchesShareTheRoutingLock(t *testing.T) {
	set, ms, moves := fakeSet(t)
	var arrived sync.WaitGroup
	arrived.Add(2)
	met := make(chan struct{})
	go func() {
		arrived.Wait()
		close(met)
	}()
	rendezvous := func() {
		arrived.Done()
		select {
		case <-met:
		case <-time.After(10 * time.Second):
		}
	}
	ms[0].enter, ms[1].enter = rendezvous, rendezvous

	errs := make(chan error, 2)
	for p := 0; p < 2; p++ {
		go func(p int) { errs <- set.RecordBatch([]core.Event{at(moves, p, 10)}) }(p)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-met:
	default:
		t.Fatal("the two single-member batches never overlapped inside their members")
	}
}
