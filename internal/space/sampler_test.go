package space

import (
	"math"
	"math/rand"
	"testing"
)

// unbounded returns offset ranges no ball draw can leave.
func unbounded(dim int) (lo, hi []int) {
	lo, hi = make([]int, dim), make([]int, dim)
	for i := range lo {
		lo[i], hi[i] = math.MinInt, math.MaxInt
	}
	return lo, hi
}

// TestBallSamplerUniform verifies the DP lattice-ball sampler draws each
// ball point with equal probability, via a chi-square test on a small ball
// where exact enumeration is feasible.
func TestBallSamplerUniform(t *testing.T) {
	dim := 3
	radius := 2.0
	bs := newBallSampler(dim, radius)
	lo, hi := unbounded(dim)

	// Enumerate the exact ball for reference.
	r2 := radius * radius
	type key [3]int
	ball := map[key]int{}
	rInt := int(radius)
	for a := -rInt; a <= rInt; a++ {
		for b := -rInt; b <= rInt; b++ {
			for c := -rInt; c <= rInt; c++ {
				if float64(a*a+b*b+c*c) <= r2 {
					ball[key{a, b, c}] = 0
				}
			}
		}
	}
	n := len(ball) // 33 points for r=2 in 3-D

	rng := rand.New(rand.NewSource(1))
	draws := 33000
	offset := make([]int, dim)
	for i := 0; i < draws; i++ {
		if !bs.sampleIn(offset, lo, hi, rng) {
			t.Fatal("unbounded draw rejected")
		}
		k := key{offset[0], offset[1], offset[2]}
		if _, ok := ball[k]; !ok {
			t.Fatalf("sampled point %v outside the ball", offset)
		}
		ball[k]++
	}

	expected := float64(draws) / float64(n)
	chi2 := 0.0
	for _, c := range ball {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// dof = 32; the 0.999 quantile of chi-square(32) is ~62.5.
	if chi2 > 62.5 {
		t.Fatalf("chi-square %.1f exceeds the 99.9%% bound: sampler not uniform", chi2)
	}
}

func TestBallSamplerMatchesCount(t *testing.T) {
	// The DP tables of the sampler and the counter must agree.
	for dim := 1; dim <= 6; dim++ {
		for _, radius := range []float64{1, 2, 3, 4.5} {
			bs := newBallSampler(dim, radius)
			q := int(math.Floor(radius * radius))
			if got, want := bs.cum[dim][q], latticeBallCount(dim, radius*radius); got != want {
				t.Fatalf("dim %d r %v: sampler total %d vs count %d", dim, radius, got, want)
			}
		}
	}
}

func TestBallSamplerHighDim(t *testing.T) {
	// 8-D radius 4.5 (the tau*R ball of the paper's settings): every draw
	// must stay inside the ball.
	bs := newBallSampler(8, 4.5)
	lo, hi := unbounded(8)
	rng := rand.New(rand.NewSource(2))
	offset := make([]int, 8)
	r2 := 4.5 * 4.5
	for i := 0; i < 5000; i++ {
		if !bs.sampleIn(offset, lo, hi, rng) {
			t.Fatal("unbounded draw rejected")
		}
		s := 0
		for _, k := range offset {
			s += k * k
		}
		if float64(s) > r2 {
			t.Fatalf("draw %v has squared norm %d > %.2f", offset, s, r2)
		}
	}
}
