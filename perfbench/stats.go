package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// A percentile with fewer samples beyond it is decided by a handful of
// outliers (a p99 over 64 samples is the single slowest one), so the
// helpers refuse it instead of printing a number that only looks precise.
const minBeyond = 10

// errNoSamples is returned by every summary of an empty sample.
var errNoSamples = errors.New("stats: no samples")

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the conventional median: the middle value, or the mean of the
// two middle values for an even count.
func median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errNoSamples
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it. It
// refuses a rank with fewer than minBeyond samples above it.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errNoSamples
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %g out of (0, 100]", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("stats: p%g over %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sortedCopy(xs)[rank-1], nil
}

// tailLadder is the set of tail percentiles a report may print, highest
// first.
var tailLadder = []float64{99, 95, 90, 75}

// highestTail returns the highest percentile of tailLadder the sample
// supports, with its value; ok is false when none is supported.
func highestTail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if v, err := percentile(xs, p); err == nil {
			return p, v, true
		}
	}
	return 0, 0, false
}

// quartiles returns the three cut points dividing the sample into four
// groups, by the same "exclusive" method as Python's
// statistics.quantiles(xs, n=4), so a spread computed here matches one
// computed from the printed values. A single sample is its own quartiles.
func quartiles(xs []float64) ([3]float64, error) {
	var q [3]float64
	switch len(xs) {
	case 0:
		return q, errNoSamples
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}, nil
	}
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, nil
}

// iqrShare is the distance between the first and third quartiles as a
// share of the median: the run-to-run spread a metric's bound must cover.
func iqrShare(xs []float64) (float64, error) {
	q, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	med, err := median(xs)
	if err != nil {
		return 0, err
	}
	if med <= 0 {
		return 0, fmt.Errorf("stats: spread of a sample with median %g", med)
	}
	return (q[2] - q[0]) / med, nil
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errNoSamples
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("stats: geometric mean of non-positive value %g", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// medianOr0 is the median, or 0 for an empty sample (a layer the workload
// does not reach).
func medianOr0(xs []float64) float64 {
	m, err := median(xs)
	if err != nil {
		return 0
	}
	return m
}

// maxOr0 is the largest sample, or 0 for an empty sample.
func maxOr0(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
