package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for an empty sample).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads printed here are the ones the driver computes. A sample of one
// has no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	if len(s) == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// relSpread is the inter-quartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// nearestRank is the 1-based rank of the p-th percentile in a sample of n
// (0 < p <= 100). The small slack keeps 99.9 % of 10000 at rank 9990 despite
// binary rounding.
func nearestRank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile is the nearest-rank p-th percentile.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[nearestRank(p, len(xs))-1]
}

// tailSamples is how many samples must lie beyond a percentile before it is
// worth reporting.
const tailSamples = 10

// highestPercentile picks, from the percentiles a report would name, the
// highest one that still has tailSamples samples beyond it in a sample of n;
// 0 when none has (with a dozen samples only the median is reported).
func highestPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if n-nearestRank(p, n) >= tailSamples {
			return p
		}
	}
	return 0
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, 0 when the base is 0 (a layer the workload does not touch).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
