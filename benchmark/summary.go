package main

import "math/bits"

// hist is the bounded-memory latency summariser: a log-linear histogram
// over nanosecond durations with 128 sub-buckets per power of two, so a
// bucket is never wider than 1/128 of its lower bound, and percentiles
// are interpolated inside the bucket holding the target rank.
//
// A histogram rather than a sampling reservoir (SNIPPETS.md 2–3) because
// the harness merges summaries across clients and slices: bucket counts
// add exactly, a reservoir merge needs re-weighting, and the bucket
// width gives a deterministic error bound where a reservoir's is
// statistical. Memory is fixed (17 KiB) however long a run is.
type hist struct {
	n   uint64
	sum float64
	b   [histBuckets]uint32
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Durations of 2^40 ns (18 min) and more land in the last bucket.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxExp {
		v = 1<<histMaxExp - 1
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	if shift < 0 {
		shift = 0
	}
	return shift*histSub + int(v>>uint(shift))
}

// histBounds returns the lower bound and width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	m := i - shift*histSub
	return float64(uint64(m) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) add(ns int64) {
	h.n++
	h.sum += float64(ns)
	h.b[histIndex(ns)]++
}

func (h *hist) merge(o *hist) {
	if o == nil {
		return
	}
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.b {
		h.b[i] += c
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile in nanoseconds (0 when empty). The
// target rank q·(n−1) is located by a cumulative walk and the value is
// interpolated linearly inside its bucket, treating the bucket's
// samples as evenly spread over it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var before float64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if rank < before+float64(c) {
			lo, width := histBounds(i)
			return lo + width*(rank-before+0.5)/float64(c)
		}
		before += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}
