package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it does not modify. An empty sample yields NaN, so a
// metric computed from nothing can never pass for a measurement.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample (mean of the middle two for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles a timing may be reported at, in
// permille so the sample-count test below is exact.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile returns the highest ladder percentile that still has
// at least ten of n samples beyond it — the highest tail a sample of
// that size can support — or 0 when even the median cannot (n < 20).
func tailPercentile(n int) float64 {
	best := 0
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 10
}
