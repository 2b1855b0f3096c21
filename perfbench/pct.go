package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above the highest percentile
// a timing reports; fewer make that percentile a reading of a handful
// of outliers.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the p-quantile among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile reads the nearest-rank p-quantile of ascending samples.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond counts the samples above the nearest-rank p-quantile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// supports reports whether n samples leave at least minBeyond above
// the p-quantile.
func supports(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the midpoint median of xs (mean of the middle two for an
// even count), used for repeated whole-run timings such as set-up.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
