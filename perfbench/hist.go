package main

import "math/bits"

// hist is a fixed-size log-linear histogram of non-negative nanosecond
// durations: 64 linear sub-buckets per power of two, so a bucket is at most
// 1/64 of its value wide. Recording never allocates, which keeps per-packet
// latency sampling out of the garbage collector's way.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
}

const (
	histSub     = 64 // sub-buckets per power of two (and the linear range)
	histSubBits = 6
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	return (shift+1)*histSub + int(v>>uint(shift)) - histSub
}

// histBounds returns bucket i's value range [lo, lo+width).
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	sub := i%histSub + histSub
	w := float64(uint64(1) << uint(shift))
	return float64(sub) * w, w
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.sum += float64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile (0 < q ≤ 1), interpolating linearly by
// rank inside the bucket that holds it; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := histBounds(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}
