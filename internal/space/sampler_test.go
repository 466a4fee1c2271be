package space

import (
	"math"
	"math/rand"
	"testing"
)

// drawOffset fills offset with one uniform ball draw through the
// production walk, with ranges no ball draw can leave.
func drawOffset(t *testing.T, bs *ballSampler, offset []int, rng *rand.Rand) {
	t.Helper()
	lo, hi := make([]int, bs.dim), make([]int, bs.dim)
	buf := make([]int64, bs.dim)
	for i := range buf {
		lo[i], hi[i] = math.MinInt, math.MaxInt
		buf[i] = rng.Int63()
		if buf[i] > bs.safe {
			t.Fatalf("raw draw %d above the one-draw bound", buf[i])
		}
	}
	ok := []bool{false}
	bs.walk(buf, ok, lo, hi)
	if !ok[0] {
		t.Fatal("unbounded draw rejected")
	}
	for i, k := range buf {
		offset[i] = int(k)
	}
}

// TestBallSamplerUniform verifies the DP lattice-ball sampler draws each
// ball point with equal probability, via a chi-square test on a small ball
// where exact enumeration is feasible.
func TestBallSamplerUniform(t *testing.T) {
	dim := 3
	radius := 2.0
	bs := newBallSampler(dim, radius)

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
		drawOffset(t, bs, offset, rng)
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
	rng := rand.New(rand.NewSource(2))
	offset := make([]int, 8)
	r2 := 4.5 * 4.5
	for i := 0; i < 5000; i++ {
		drawOffset(t, bs, offset, rng)
		s := 0
		for _, k := range offset {
			s += k * k
		}
		if float64(s) > r2 {
			t.Fatalf("draw %v has squared norm %d > %.2f", offset, s, r2)
		}
	}
}
