package main

import (
	"fmt"
	"math"
	"sort"
)

// minSamples is the fewest per-op timings a gated run may report a 5th
// percentile from: with 400 samples, 20 lie below the reported value.
const minSamples = 400

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks, the definition Python's
// statistics.quantiles(method="inclusive") uses.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns v sorted ascending without disturbing v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// p05 returns the gated timing statistic: the 5th percentile, refused
// below min samples because a low quantile of few samples is a minimum
// in disguise.
func p05(samples []float64, min int) (float64, error) {
	if len(samples) < min {
		return 0, fmt.Errorf("%d samples, need at least %d for a 5th percentile", len(samples), min)
	}
	return quantile(sortedCopy(samples), 0.05), nil
}

// topPercentile returns the highest percentile (as q in 0..1, and its
// value) that still has at least ten samples beyond it.
func topPercentile(sorted []float64) (q, v float64) {
	n := len(sorted)
	if n <= 10 {
		return 0.5, quantile(sorted, 0.5)
	}
	q = float64(n-11) / float64(n-1)
	return q, quantile(sorted, q)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure the acceptance bounds are compared against.
// Quartiles follow Python's statistics.quantiles(v, n=4) default
// (exclusive) method so the numbers match the driver's.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// quartiles returns Q1, median, Q3 by the exclusive method: position
// (n+1)*k/4 on the 1-based sorted sample, clamped to the ends.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	at := func(k int) float64 {
		n := len(s)
		if n == 0 {
			return math.NaN()
		}
		if n == 1 {
			return s[0]
		}
		pos := float64(n+1)*float64(k)/4 - 1
		switch {
		case pos <= 0:
			return s[0]
		case pos >= float64(n-1):
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return at(1), at(2), at(3)
}
