package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. It is exact on the samples (no
// interpolation), so a reported latency is one an operation really
// had. xs need not be sorted; an empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the interpolated median (mean of the middle two for an even
// count), the same rule as Python's statistics.median the driver uses
// on run-level values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// samplesBeyond counts the samples strictly above the p-th percentile's
// rank — the choosing-metrics rule is to report the highest percentile
// that still has at least ten samples beyond it.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// wholeCycles returns how many of n operations belong to complete
// cycles of the given length; a trailing partial cycle is not reported
// (budget_creep's mix of one cold build and seven extensions only has
// its stated shape over whole cycles).
func wholeCycles(n, cycle int) int {
	if cycle <= 1 {
		return n
	}
	return n - n%cycle
}

// relativeWorsening is how far candidate is worse than base, as a share
// of base, for a metric where better is "lower" or "higher". Negative
// means the candidate is better.
func relativeWorsening(base, candidate float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - candidate) / math.Abs(base)
	}
	return (candidate - base) / math.Abs(base)
}

// iqrShare is the inter-quartile distance of xs as a share of their
// median, with the quartiles of Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method) — the spread statistic the driver gates on.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}
