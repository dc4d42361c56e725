package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile
// for the percentile to say anything about the tail.
const minBeyond = 10

// tailLadder lists the percentiles tailPercentile chooses from.
var tailLadder = []float64{50, 90, 99, 99.9}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest rank of the p-th percentile among n samples:
// the smallest rank with at least p% of the samples at or below it. p is
// taken in tenths of a percent so that 99.9 is exact.
func rank(n int, p float64) int {
	tenths := int(math.Round(p * 10))
	r := (tenths*n + 999) / 1000
	return max(1, min(r, n))
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least minBeyond of n samples above it, or 0 when not even the median does.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// median returns the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs computed as
// Python's statistics.quantiles(xs, n=4) does (the default exclusive
// method), so spreads read the same as in any script that checks them.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
