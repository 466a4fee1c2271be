package main

import (
	"errors"
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	// 100 samples 1..100: p90 is the 90th value, with 10 beyond it.
	v, err := percentile(seq(100), 90)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	// p99 over 64 samples would rest on a single sample: refused.
	if _, err := percentile(seq(64), 99); err == nil {
		t.Fatal("p99 over 64 samples was not refused")
	}
	// p90 over 99 samples has only 9 beyond it: refused.
	if _, err := percentile(seq(99), 90); err == nil {
		t.Fatal("p90 over 99 samples was not refused")
	}
	// Order does not matter, and the input is not reordered.
	xs := []float64{5, 3, 1, 4, 2, 9, 8, 7, 6, 10, 15, 14, 13, 12, 11, 20, 19, 18, 17, 16}
	if v, err := percentile(xs, 50); err != nil || v != 10 {
		t.Fatalf("p50 of shuffled 1..20 = %v, %v; want 10", v, err)
	}
	if xs[0] != 5 {
		t.Fatal("percentile reordered its input")
	}
	for _, p := range []float64{0, -1, 101} {
		if _, err := percentile(seq(100), p); err == nil {
			t.Errorf("percentile %v accepted", p)
		}
	}
}

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{1000, 99, true, 990},
		{200, 95, true, 190},
		{100, 90, true, 90},
		{64, 75, true, 48},
		{39, 0, false, 0},
	} {
		p, v, ok := highestTail(seq(tc.n))
		if ok != tc.ok || p != tc.p || v != tc.want {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", tc.n, p, v, ok, tc.p, tc.want, tc.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q, err := quartiles(seq(10))
	if err != nil || !near(q[0], 2.75) || !near(q[1], 5.5) || !near(q[2], 8.25) {
		t.Fatalf("quartiles(1..10) = %v, %v", q, err)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q, _ := quartiles([]float64{2, 1}); !near(q[0], 0.75) || !near(q[1], 1.5) || !near(q[2], 2.25) {
		t.Fatalf("quartiles([1 2]) = %v", q)
	}
	if q, err := quartiles([]float64{4}); err != nil || q != [3]float64{4, 4, 4} {
		t.Fatalf("quartiles([4]) = %v, %v", q, err)
	}
	if q, _ := quartiles([]float64{3, 3, 3, 3}); q != [3]float64{3, 3, 3} {
		t.Fatalf("quartiles of ties = %v", q)
	}
	if _, err := quartiles(nil); !errors.Is(err, errNoSamples) {
		t.Fatalf("quartiles(nil) error %v", err)
	}
}

func TestIQRShare(t *testing.T) {
	s, err := iqrShare(seq(10))
	if err != nil || !near(s, (8.25-2.75)/5.5) {
		t.Fatalf("iqrShare(1..10) = %v, %v", s, err)
	}
	if s, err := iqrShare([]float64{7, 7, 7}); err != nil || s != 0 {
		t.Fatalf("iqrShare of ties = %v, %v", s, err)
	}
	if _, err := iqrShare([]float64{0, 0}); err == nil {
		t.Fatal("spread around a zero median accepted")
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m, _ := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m, _ := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if m, _ := median([]float64{5}); m != 5 {
		t.Fatalf("median of one = %v", m)
	}
	if _, err := median(nil); !errors.Is(err, errNoSamples) {
		t.Fatalf("median(nil) error %v", err)
	}
	if g, err := geomean([]float64{2, 8}); err != nil || !near(g, 4) {
		t.Fatalf("geomean(2, 8) = %v, %v", g, err)
	}
	if g, _ := geomean([]float64{3, 3, 3}); !near(g, 3) {
		t.Fatalf("geomean of ties = %v", g)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}} {
		if _, err := geomean(xs); err == nil {
			t.Errorf("geomean(%v) accepted", xs)
		}
	}
	if medianOr0(nil) != 0 || maxOr0(nil) != 0 || maxOr0([]float64{-3, -1, -2}) != -1 {
		t.Fatal("empty-sample fallbacks")
	}
}
