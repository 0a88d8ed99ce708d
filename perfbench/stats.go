package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for a latency tail, highest last.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie above a percentile before it is
// reported as a tail.
const minBeyond = 10

// tail returns the highest candidate percentile with at least minBeyond
// samples above it, its nearest-rank value and that sample count. The
// nearest-rank p-th percentile is the ⌈p·n/100⌉-th smallest sample, so
// n − ⌈p·n/100⌉ samples lie beyond it. ok is false when even the median
// has fewer than minBeyond samples beyond it (fewer than 20 samples).
func tail(xs []float64) (pct, value float64, beyond int, ok bool) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		p := tailPercentiles[i]
		rank := int(math.Ceil(p * float64(n) / 100))
		if rank < 1 || n-rank < minBeyond {
			continue
		}
		return p, s[rank-1], n - rank, true
	}
	return 0, 0, 0, false
}

// maxOf returns the largest of xs, or 0 for no samples.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
