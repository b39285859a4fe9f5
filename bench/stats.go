package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending-sorted sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is the 50th percentile of an unsorted sample (the input is not
// modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// spread is the distance between a sample's first and third quartile as
// a share of its median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives: the driver's measure of how far
// runs of the same code disagree.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / quartile(2)
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// supportedTail returns the highest of tailPercentiles that still has
// at least ten samples beyond it in a sample of n, or 50 when even p75
// does not: a percentile with fewer samples above it is an anecdote,
// not a measurement.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return p
		}
	}
	return 50
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedMicros converts a latency sample to microseconds, ascending.
func sortedMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	sort.Float64s(out)
	return out
}
