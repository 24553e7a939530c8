package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie above it, so a tail figure is never one
// outlier (or, as with p50 = p99 over a handful of samples, no tail at all).
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples and
// whether it may be reported under the minBeyond rule. samples need not be
// sorted; it is sorted in place.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return samples[rank-1], true
}

// median is the middle of the per-pass values (the mean of the two middle
// ones for an even count); 0 for none. Every timing this benchmark reports
// is a median over passes, never one pass.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
