package main

import (
	"math"
	"slices"
)

// nanos is a duration in nanoseconds: whole when stamped by the clock,
// fractional when it is a timed group's wall divided by its operations.
type nanos interface{ ~int64 | ~float64 }

// tailLadder lists the percentiles a "p99" may fall back to, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is how many independent samples must lie beyond a percentile
// before it is reported: fewer, and the number is one or two outliers.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of the n independent samples beyond it (50 when none has).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// quantile is the exact nearest-rank order statistic of an ascending
// slice: the smallest sample with at least pct percent of the samples at
// or below it. It returns 0 for an empty slice.
func quantile[T nanos](sorted []T, pct float64) T {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(pct/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// ascending sorts xs in place and returns it.
func ascending[T nanos](xs []T) []T {
	slices.Sort(xs)
	return xs
}

// medianFloat is the median of xs (mean of the middle two when even); it
// reorders xs and returns 0 when empty.
func medianFloat(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func maxFloat(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ratio is a/b, and 0 when b is 0, so an empty layer reads as 0 and not
// as NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms[T nanos](ns T) float64 { return float64(ns) / 1e6 }
func us[T nanos](ns T) float64 { return float64(ns) / 1e3 }
