package core

import (
	"math"
	"sort"
	"testing"
)

// fuzzRunTracker builds a tracker from ops: two tracking-form
// directions on clocks of their own, sealed into one run by seal
// passes in between. An op byte 0xFF is a seal pass that moves up to
// the next two bytes' worth of each direction's hot events into the
// run; any other byte b appends an event to direction b&1 at b>>1 ticks
// past that direction's previous one, so a direction that idles while
// the other moves on comes back with events older than the run's last.
// With offGrid the forward direction sits a third of a tick off the
// grid, and the run is raw. It returns the tracker and each direction's
// whole sequence.
func fuzzRunTracker(ops []byte, tick float64, offGrid bool) (tr *Tracker, fwd, rev []float64) {
	var clock [2]int64
	var all [2][]float64
	var sealed [2]int
	tr = &Tracker{}
	for i := 0; i < len(ops); i++ {
		b := ops[i]
		if b != 0xFF {
			d := int(b & 1)
			clock[d] += int64(b >> 1)
			t := float64(clock[d]) * tick
			if offGrid && d == 0 {
				t += tick / 3
			}
			all[d] = append(all[d], t)
			continue
		}
		var move [2]int
		for d := range move {
			if i+1 < len(ops) {
				i++
				move[d] = min(int(ops[i]), len(all[d])-sealed[d])
			}
		}
		tr.sealed = sealRun(tr.sealed, all[0][sealed[0]:sealed[0]+move[0]], all[1][sealed[1]:sealed[1]+move[1]], tick)
		sealed[0], sealed[1] = sealed[0]+move[0], sealed[1]+move[1]
	}
	tr.fwd, tr.rev = all[0][sealed[0]:], all[1][sealed[1]:]
	return tr, all[0], all[1]
}

// refCount is the float reference of a count: the events of sorted ts
// that are not past t (so NaN counts every one).
func refCount(ts []float64, t float64) int {
	return sort.Search(len(ts), func(i int) bool { return ts[i] > t })
}

// FuzzSealedRunDirections seals two random monotone directions into one
// run (fuzzRunTracker) and holds every per-direction read — Count,
// countInDir, window, Events, last — and the fused perimeter terms
// (net, netIn) to a float reference read off the directions' own
// sequences, at the fuzzed bounds and around sixteen events a direction
// spread over its sequence. Every run the seal builds must pass
// validate. `make check` runs a 10s smoke.
func FuzzSealedRunDirections(f *testing.F) {
	// Ties across directions: both clocks step together.
	ties := make([]byte, 0, 600)
	for i := 0; i < 280; i++ {
		ties = append(ties, 2+byte(i%3)*2, 3+byte(i%3)*2)
		if i%90 == 89 {
			ties = append(ties, 0xFF, 200, 200)
		}
	}
	f.Add(ties, 1.0, false, 10.0, 200.0)
	// A late event on an idle direction: three reverse events, then 300
	// forward ones sealed, then a reverse event older than the run's last,
	// sealed into the run from inside.
	late := []byte{5, 3, 7}
	for i := 0; i < 300; i++ {
		late = append(late, byte(2+i%9*2))
	}
	late = append(late, 0xFF, 255, 0, 0xFF, 0, 3, 9, 0xFF, 0, 255, 4, 6)
	f.Add(late, 1.0, false, 5.0, 600.0)
	f.Add(late, 0.25, true, 1.0, 50.0)
	f.Add([]byte{0, 1, 0xFF, 1, 1, 0, 1}, 0.5, false, math.Inf(-1), math.NaN())
	f.Fuzz(func(t *testing.T, ops []byte, tick float64, offGrid bool, t1, t2 float64) {
		if !(tick > 1e-6) || tick > 1e6 || len(ops) > 4096 {
			return
		}
		tr, fwd, rev := fuzzRunTracker(ops, tick, offGrid)
		if r := tr.sealed; r != nil {
			if err := r.validate(); err != nil {
				t.Fatalf("the seal built a run validate rejects: %v", err)
			}
			if offGrid && r.dirLen(true) > 0 && r.raw == nil {
				t.Fatalf("off-grid forward events sealed into a block-encoded run")
			}
		}
		probes := []float64{t1, t2, math.NaN(), math.Inf(1), math.Inf(-1)}
		for _, ts := range [][]float64{fwd, rev} {
			for i := 0; i < len(ts); i += 1 + len(ts)/16 {
				probes = append(probes, ts[i], ts[i]-tick/2, ts[i]+tick/2)
			}
		}
		pairs := [][2]float64{{t1, t2}, {t2, t1}}
		for i := range probes {
			pairs = append(pairs, [2]float64{probes[i], probes[(i*5+1)%len(probes)]})
		}
		for _, d := range []struct {
			forward  bool
			ts, back []float64
		}{{true, fwd, rev}, {false, rev, fwd}} {
			if got := tr.Events(d.forward); len(got) != len(d.ts) {
				t.Fatalf("forward %v: Events holds %d of %d events", d.forward, len(got), len(d.ts))
			} else {
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(d.ts[i]) {
						t.Fatalf("forward %v: Events[%d] = %v, want %v", d.forward, i, got[i], d.ts[i])
					}
				}
			}
			if last, ok := tr.last(d.forward); ok != (len(d.ts) > 0) || ok && last != d.ts[len(d.ts)-1] {
				t.Fatalf("forward %v: last = %v, %v", d.forward, last, ok)
			}
			for _, x := range probes {
				if got, want := tr.Count(d.forward, x), refCount(d.ts, x); got != want {
					t.Fatalf("forward %v: Count(%v) = %d, want %d", d.forward, x, got, want)
				}
				if got, want := tr.net(d.forward, x), refCount(d.ts, x)-refCount(d.back, x); got != want {
					t.Fatalf("forward %v: net(%v) = %d, want %d", d.forward, x, got, want)
				}
			}
			for _, p := range pairs {
				a, b := p[0], p[1]
				if got, want := tr.countInDir(d.forward, a, b), refCount(d.ts, b)-refCount(d.ts, a); got != want {
					t.Fatalf("forward %v: countInDir(%v, %v) = %d, want %d", d.forward, a, b, got, want)
				}
				want := refCount(d.ts, b) - refCount(d.back, b) - refCount(d.ts, a) + refCount(d.back, a)
				if got := tr.netIn(d.forward, a, b); got != want {
					t.Fatalf("forward %v: netIn(%v, %v) = %d, want %d", d.forward, a, b, got, want)
				}
				le, got := tr.window(d.forward, a, b, nil)
				wantLE, wantIn := windowOf(d.ts, a, b)
				if le != wantLE || len(got) != len(wantIn) {
					t.Fatalf("forward %v: window(%v, %v) = %d before, %d inside; want %d, %d", d.forward, a, b, le, len(got), wantLE, len(wantIn))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(wantIn[i]) {
						t.Fatalf("forward %v: window(%v, %v) event %d = %v, want %v", d.forward, a, b, i, got[i], wantIn[i])
					}
				}
			}
		}
	})
}
