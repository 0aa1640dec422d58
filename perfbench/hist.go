package main

import (
	"fmt"
	"math/bits"
)

// histSub is the number of linear sub-buckets per power of two. With 128
// sub-buckets a bucket spans at most 1/128 of its lower bound, and the
// reported midpoint is within 1/256 (0.4%) of any value it holds.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// hist is a preallocated log-linear latency histogram over nanoseconds.
// Recording never allocates, so it is safe inside timed loops.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	max    uint64
}

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histMid returns the midpoint of bucket i.
func histMid(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := uint(i/histSub - 1)
	lo := uint64(i%histSub+histSub) << e
	return float64(lo) + float64(uint64(1)<<e)/2
}

func (h *hist) record(ns int64) {
	v := uint64(ns)
	if ns < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histMid(i)
		}
	}
	return float64(h.max)
}

func (h *hist) String() string {
	return fmt.Sprintf("n=%d p50=%.2fus p99=%.2fus p99.9=%.2fus max=%.2fus mean=%.2fus",
		h.n, h.quantile(0.5)/1e3, h.quantile(0.99)/1e3, h.quantile(0.999)/1e3,
		float64(h.max)/1e3, float64(h.sum)/float64(max(h.n, 1))/1e3)
}
