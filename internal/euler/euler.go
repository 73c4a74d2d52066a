// Package euler implements the paper's baseline (§5.1.2): an
// Euler-histogram aggregate per face of the sensing graph G (one face per
// junction by duality) over fixed time buckets, combined with random
// index sampling of faces. Counts are aggregated centrally before
// querying; the estimator scales the sampled sum to the full region
// (Horvitz–Thompson), with an unscaled lower-bound variant kept for the
// ablation experiment.
package euler

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/mobility"
	"repro/internal/planar"
	"repro/internal/roadnet"
)

// Histogram stores, per junction (face) and time bucket, the occupancy at
// the bucket start and the number of arrivals during the bucket.
type Histogram struct {
	w       *roadnet.World
	bucket  float64
	buckets int
	horizon float64
	// occ[j*buckets+b]: occupancy of junction j at the START of bucket b.
	occ []int32
	// arrivals[j*buckets+b]: objects arriving at j during bucket b.
	arrivals []int32
}

// BuildHistogram aggregates a workload into an Euler histogram with the
// given bucket width in seconds.
func BuildHistogram(wl *mobility.Workload, bucket float64) (*Histogram, error) {
	if bucket <= 0 {
		return nil, fmt.Errorf("euler: bucket width must be positive, got %v", bucket)
	}
	nb := int(wl.Horizon/bucket) + 2
	nj := wl.W.Star.NumNodes()
	h := &Histogram{
		w:        wl.W,
		bucket:   bucket,
		buckets:  nb,
		horizon:  wl.Horizon,
		occ:      make([]int32, nj*nb),
		arrivals: make([]int32, nj*nb),
	}
	// Record deltas at bucket granularity, then prefix-sum per junction.
	delta := make([]int32, nj*nb)
	pos := make(map[int]planar.NodeID, wl.Objects)
	for _, ev := range wl.Events {
		b := h.bucketOf(ev.T)
		switch ev.Kind {
		case mobility.Enter:
			delta[int(ev.At)*nb+b]++
			h.arrivals[int(ev.At)*nb+b]++
			pos[ev.Obj] = ev.At
		case mobility.Move:
			if from, ok := pos[ev.Obj]; ok {
				delta[int(from)*nb+b]--
			}
			delta[int(ev.At)*nb+b]++
			h.arrivals[int(ev.At)*nb+b]++
			pos[ev.Obj] = ev.At
		case mobility.Leave:
			if from, ok := pos[ev.Obj]; ok {
				delta[int(from)*nb+b]--
				delete(pos, ev.Obj)
			}
		}
	}
	for j := 0; j < nj; j++ {
		var run int32
		for b := 0; b < nb; b++ {
			h.occ[j*nb+b] = run // occupancy at bucket start
			run += delta[j*nb+b]
		}
	}
	return h, nil
}

func (h *Histogram) bucketOf(t float64) int {
	if t < 0 {
		return 0
	}
	b := int(t / h.bucket)
	if b >= h.buckets {
		b = h.buckets - 1
	}
	return b
}

// occupancyAt returns the histogram's occupancy of junction j at time t
// (bucket-start resolution).
func (h *Histogram) occupancyAt(j planar.NodeID, t float64) int {
	return int(h.occ[int(j)*h.buckets+h.bucketOf(t)])
}

// StorageBytes reports the histogram footprint over the given junctions
// (nil = all): two int32 series per junction.
func (h *Histogram) StorageBytes(junctions []planar.NodeID) int {
	per := h.buckets * 4 * 2
	if junctions == nil {
		return h.w.Star.NumNodes() * per
	}
	return len(junctions) * per
}

// Baseline is the sampled-faces estimator over a histogram.
type Baseline struct {
	H *Histogram
	// Sampled is the set of sampled junctions (faces), ascending.
	Sampled []planar.NodeID
	sampled map[planar.NodeID]bool
	// Scaled selects the Horvitz–Thompson scaling (default true).
	Scaled bool
}

// NewBaseline samples m faces uniformly at random (random index sampling,
// [14, 29]) over the histogram's world.
func NewBaseline(h *Histogram, m int, scaled bool, rng *rand.Rand) (*Baseline, error) {
	n := h.w.Star.NumNodes()
	if m <= 0 {
		return nil, fmt.Errorf("euler: sample size must be positive, got %d", m)
	}
	if m > n {
		m = n
	}
	perm := rng.Perm(n)[:m]
	sort.Ints(perm)
	b := &Baseline{H: h, Scaled: scaled, sampled: make(map[planar.NodeID]bool, m)}
	for _, j := range perm {
		b.Sampled = append(b.Sampled, planar.NodeID(j))
		b.sampled[planar.NodeID(j)] = true
	}
	return b, nil
}

// regionSample splits a query region into its sampled junction subset.
func (b *Baseline) regionSample(junctions []planar.NodeID) (hit []planar.NodeID) {
	for _, j := range junctions {
		if b.sampled[j] {
			hit = append(hit, j)
		}
	}
	return hit
}

// scale returns the estimator multiplier for a region of the given size
// with `hits` sampled members.
func (b *Baseline) scale(regionSize, hits int) float64 {
	if !b.Scaled || hits == 0 {
		return 1
	}
	return float64(regionSize) / float64(hits)
}

// SnapshotCount estimates the occupancy of the junction set at time t.
// The miss flag is true when no sampled face lies in the region.
func (b *Baseline) SnapshotCount(junctions []planar.NodeID, t float64) (float64, bool) {
	hit := b.regionSample(junctions)
	if len(hit) == 0 {
		return 0, true
	}
	sum := 0.0
	for _, j := range hit {
		sum += float64(b.H.occupancyAt(j, t))
	}
	return sum * b.scale(len(junctions), len(hit)), false
}

// StaticCount estimates the always-present count over [t1, t2] as the
// minimum bucket occupancy across the interval (the histogram analogue of
// the framework's min-scan).
func (b *Baseline) StaticCount(junctions []planar.NodeID, t1, t2 float64) (float64, bool) {
	hit := b.regionSample(junctions)
	if len(hit) == 0 {
		return 0, true
	}
	h := b.H
	b1, b2 := h.bucketOf(t1), h.bucketOf(t2)
	min := -1.0
	for bk := b1; bk <= b2; bk++ {
		sum := 0.0
		for _, j := range hit {
			sum += float64(h.occ[int(j)*h.buckets+bk])
		}
		if min < 0 || sum < min {
			min = sum
		}
	}
	return min * b.scale(len(junctions), len(hit)), false
}

// TransientCount estimates the net occupancy change over (t1, t2].
func (b *Baseline) TransientCount(junctions []planar.NodeID, t1, t2 float64) (float64, bool) {
	hit := b.regionSample(junctions)
	if len(hit) == 0 {
		return 0, true
	}
	sum := 0.0
	for _, j := range hit {
		sum += float64(b.H.occupancyAt(j, t2)) - float64(b.H.occupancyAt(j, t1))
	}
	return sum * b.scale(len(junctions), len(hit)), false
}

// StorageBytes reports the baseline's storage: histograms of the sampled
// faces only.
func (b *Baseline) StorageBytes() int { return b.H.StorageBytes(b.Sampled) }
