package core

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks of the two reads a sealed run serves (DESIGN.md
// §12.1), one sub-benchmark per block encoding: countLE is the descent
// a snapshot or transient query makes per perimeter edge, window all a
// static one does. Each runs over one run of a seal threshold's worth of
// events, probed at random instants inside it.

var segBenchSink int

// segBenchSegment seals 8192 events of the given shape — off the tick
// grid, for the raw fallback, when offGrid is set — and draws 1024 probe
// windows from inside the run: t1 just past a random event, t2 at
// the tenth event after it, the size the benchmark's static queries read.
func segBenchSegment(shape segShape, offGrid bool) (g *run, t1, t2 []float64) {
	rng := rand.New(rand.NewSource(5))
	ts := segTestTimes(rng, 8192, 1.0, shape)
	if offGrid {
		for i := range ts {
			ts[i] += 1.0 / 3
		}
	}
	t1, t2 = make([]float64, 1024), make([]float64, 1024)
	for i := range t1 {
		k := rng.Intn(len(ts) - 10)
		t1[i], t2[i] = ts[k]+0.5, ts[k+10]
	}
	return sealOne(ts, 1.0), t1, t2
}

func BenchmarkSegmentCountLE(b *testing.B) {
	for _, bc := range []struct {
		name    string
		shape   segShape
		offGrid bool
	}{{"ef", segTraffic, false}, {"packed", segDense, false}, {"varint", segWide, false}, {"raw", segDense, true}} {
		b.Run(bc.name, func(b *testing.B) {
			g, probes, _ := segBenchSegment(bc.shape, bc.offGrid)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				segBenchSink += g.countLE(probes[i%len(probes)])
			}
		})
	}
}

func BenchmarkSegmentWindow(b *testing.B) {
	for _, bc := range []struct {
		name  string
		shape segShape
	}{{"ef", segTraffic}, {"varint", segWide}} {
		b.Run(bc.name, func(b *testing.B) {
			g, t1, t2 := segBenchSegment(bc.shape, false)
			dst := make([]float64, 0, segBlockLen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				le, out := g.window(t1[i%len(t1)], t2[i%len(t2)], dst[:0])
				segBenchSink += le + len(out)
			}
		})
	}
}
