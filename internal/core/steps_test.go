package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Tests of the static kernel's two pieces of arithmetic: the timestamp
// key its radix sort orders by, and the sum of step functions a sharded
// store and a router answer with.

// edgeFloats are the floats where an order-preserving key is easiest to
// get wrong: both infinities, both zeros, the extremes of the finite and
// subnormal ranges, and neighbours one ulp apart on either side of them.
var edgeFloats = func() []float64 {
	base := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, -2, -1, -0.5, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.Float64frombits(0x0010000000000000), // largest subnormal, smallest normal
		0.5, 1, 2, 1e300, math.MaxFloat64, math.Inf(1),
	}
	var out []float64
	for _, t := range base {
		out = append(out, t, math.Nextafter(t, math.Inf(-1)), math.Nextafter(t, math.Inf(1)))
	}
	return out
}()

// TestTimeKeyOrder: timeKey is strictly monotone over every pair of
// distinct floats, equal exactly on -0/+0, and keyTime gives the float
// back — bit for bit, but for -0, which comes back as +0.
func TestTimeKeyOrder(t *testing.T) {
	ts := slices.Clone(edgeFloats)
	rng := rand.New(rand.NewSource(1))
	for len(ts) < 400 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) {
			ts = append(ts, f)
		}
	}
	for _, a := range ts {
		back := keyTime(timeKey(a))
		if back != a || math.Float64bits(back) != math.Float64bits(a+0) {
			t.Fatalf("keyTime(timeKey(%v)) = %v (bits %#x), want %v", a, back, math.Float64bits(back), a)
		}
		for _, b := range ts {
			ka, kb := timeKey(a), timeKey(b)
			if (a < b) != (ka < kb) || (a == b) != (ka == kb) {
				t.Fatalf("timeKey(%v) = %#x, timeKey(%v) = %#x: key order disagrees with float order", a, ka, b, kb)
			}
		}
	}
	if timeKey(math.Copysign(0, -1)) != timeKey(0) {
		t.Fatal("-0 and +0 have different keys")
	}
}

// sumStepsReference is SumSteps' specification: a map from instant to
// net change, the cancelled instants dropped, the rest sorted.
func sumStepsReference(lists [][]SignedEvent) []SignedEvent {
	net := map[float64]int{}
	for _, l := range lists {
		for _, st := range l {
			net[st.T] += st.Delta
		}
	}
	var ts []float64
	for t, d := range net {
		if d != 0 {
			ts = append(ts, t)
		}
	}
	slices.Sort(ts)
	out := make([]SignedEvent, len(ts))
	for i, t := range ts {
		out[i] = SignedEvent{T: t, Delta: net[t]}
	}
	return out
}

// fuzzStepLists turns bytes into valid step lists: data[0] picks how
// many (0–8), then every byte triple is one entry — which list, which
// instant (a quarter-second grid of 60 s, so lists tie, or one of the
// edge floats), which delta (a signed byte, so entries cancel). Each
// list is then sorted and its own ties summed, dropping zero sums, so
// it is strictly increasing with no zero delta.
func fuzzStepLists(data []byte) [][]SignedEvent {
	if len(data) == 0 {
		return nil
	}
	lists := make([][]SignedEvent, data[0]%9)
	if len(lists) == 0 {
		return lists
	}
	for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
		t := float64(rest[1]) / 4
		if rest[1] >= 240 {
			t = edgeFloats[int(rest[1]-240)*len(edgeFloats)/16]
		}
		l := &lists[int(rest[0])%len(lists)]
		*l = append(*l, SignedEvent{T: t, Delta: int(int8(rest[2]))})
	}
	for i, l := range lists {
		slices.SortFunc(l, func(a, b SignedEvent) int { return cmp.Compare(a.T, b.T) })
		out := l[:0]
		for j := 0; j < len(l); {
			st := l[j]
			for j++; j < len(l) && l[j].T == st.T; j++ {
				st.Delta += l[j].Delta
			}
			if st.Delta != 0 {
				out = append(out, st)
			}
		}
		lists[i] = out
	}
	return lists
}

// FuzzSumSteps holds SumSteps to its map-and-sort reference over
// arbitrary valid step lists — any number of them, entries that tie and
// cancel across lists, instants at the edges of the float range — and
// checks it appends to dst without touching what dst held. `make check`
// runs a 10s smoke.
func FuzzSumSteps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{1, 0, 40, 1, 0, 44, 255})
	f.Add([]byte{2, 0, 40, 1, 1, 40, 255, 0, 41, 3, 1, 41, 2})
	f.Add([]byte{5, 0, 240, 1, 1, 241, 2, 2, 246, 9, 3, 247, 7, 4, 255, 128, 0, 7, 127, 1, 7, 129})
	long := make([]byte, 601)
	for i := range long {
		long[i] = byte(i*37 + i/3)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		lists := fuzzStepLists(data)
		want := sumStepsReference(lists)
		prefix := SignedEvent{T: math.NaN(), Delta: 42}
		got := SumSteps([]SignedEvent{prefix}, lists)
		if !math.IsNaN(got[0].T) || got[0].Delta != 42 {
			t.Fatalf("SumSteps overwrote dst's first entry: %+v", got[0])
		}
		got = got[1:]
		if len(got) != len(want) {
			t.Fatalf("SumSteps gave %d steps, reference %d\ngot  %v\nwant %v", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i].T != want[i].T || got[i].Delta != want[i].Delta {
				t.Fatalf("step %d = %+v, reference %+v", i, got[i], want[i])
			}
		}
	})
}
