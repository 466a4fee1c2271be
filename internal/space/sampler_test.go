package space

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
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
	bs.walk(buf, ok, bs.windows(lo, hi))
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

// edgeDraws returns the draws of [0, total) on both sides of every block
// edge pick has at budget q with rem coordinates left, or all of them when
// total is small: pick and coord are constant between edges.
func edgeDraws(bs *ballSampler, rem, q int, total int64) []int64 {
	var out []int64
	if total <= 256 {
		for d := int64(0); d < total; d++ {
			out = append(out, d)
		}
		return out
	}
	add := func(d int64) {
		if d >= 0 && d < total {
			out = append(out, d)
		}
	}
	add(0)
	add(total - 1)
	var end int64
	for k := -bs.rInt; k <= bs.rInt; k++ {
		if k*k <= q {
			end += bs.cum[rem][q-k*k]
		}
		add(end - 1)
		add(end)
	}
	return out
}

// requireWindowsMatchPick checks every window bs builds for the ranges lo
// and hi against pick, at each edge draw: coord accepts exactly the draws
// whose pick offset lies in [lo[i], hi[i]], and gives pick's offset and
// budget left for them. It returns how many draws took pick's fallback.
func requireWindowsMatchPick(t *testing.T, name string, bs *ballSampler, lo, hi []int) (fallbacks int) {
	t.Helper()
	rows := bs.q + 1
	win := bs.windows(lo, hi)
	for i := range lo {
		rem := bs.dim - i - 1
		for q := 0; q < rows; q++ {
			w := &win[i*rows+q]
			if w.total != bs.cum[rem+1][q] {
				t.Fatalf("%s: coordinate %d budget %d: window total %d, cum %d", name, i, q, w.total, bs.cum[rem+1][q])
			}
			for _, draw := range edgeDraws(bs, rem, q, w.total) {
				k, left := bs.pick(rem, q, draw)
				want := k >= lo[i] && k <= hi[i]
				gk, gleft, in := bs.coord(w, q, draw)
				if in != want || (in && (gk != k || gleft != left)) {
					t.Fatalf("%s: coordinate %d budget %d range [%d, %d] draw %d: coord (%d, %d, %v), pick (%d, %d, in range %v)",
						name, i, q, lo[i], hi[i], draw, gk, gleft, in, k, left, want)
				}
				if draw >= w.sum {
					fallbacks++
				}
			}
		}
	}
	return fallbacks
}

// TestWindowsMatchPick: the windowed walk decides every coordinate as a
// scan by pick does, for every coordinate, budget and knob range of the
// 19 mobilenet-v1 template spaces at BAO's radii, and on samplers whose
// counts are clamped. A range that reaches past an offset of rInt+1 either
// way decides like one that stops there, so ranges are checked up to that
// clipping.
func TestWindowsMatchPick(t *testing.T) {
	tasks := graph.ExtractTasks(graph.MobileNetV1(), graph.ConvOnly)
	if len(tasks) != 19 {
		t.Fatalf("%d mobilenet-v1 conv tasks, want 19", len(tasks))
	}
	for _, task := range tasks {
		s, err := ForWorkload(task.Workload)
		if err != nil {
			t.Fatal(err)
		}
		dim := s.NumKnobs()
		for _, radius := range []float64{3, 4.5} {
			bs := newBallSampler(dim, radius)
			clip := bs.rInt + 1
			seen := map[[3]int]bool{}
			lo, hi := make([]int, dim), make([]int, dim)
			maxLen := 0
			for i := 0; i < dim; i++ {
				maxLen = max(maxLen, s.Knob(i).Len())
			}
			// Center c puts every knob at index min(c, Len-1).
			for c := 0; c < maxLen; c++ {
				fresh := false
				for i := 0; i < dim; i++ {
					n := s.Knob(i).Len()
					lo[i] = -min(c, n-1)
					hi[i] = n - 1 + lo[i]
					key := [3]int{i, max(lo[i], -clip), min(hi[i], clip)}
					fresh = fresh || !seen[key]
					seen[key] = true
				}
				if fresh {
					requireWindowsMatchPick(t, fmt.Sprintf("%s r=%g center %d", task.Name, radius, c), bs, lo, hi)
				}
			}
		}
	}

	// A 40-knob radius-4.5 ball has more than 2^50 points, so its counts
	// clamp: the identity sum_k cum[rem][q-k*k] = cum[rem+1][q] becomes
	// an inequality.
	clamped := newBallSampler(40, 4.5)
	if got := clamped.cum[40][clamped.q]; got != 1<<50 {
		t.Fatalf("40-knob ball count %d, want it clamped at 2^50", got)
	}
	// Taking one from every count above 1 breaks the identity the other
	// way, so draws at or beyond a window's sum reach pick's fallback.
	broken := newBallSampler(8, 4.5)
	for d := range broken.cum {
		row := append([]int64(nil), broken.cum[d]...)
		for n := range row {
			if row[n] > 1 {
				row[n]--
			}
		}
		broken.cum[d] = row
	}
	fallbacks := 0
	for _, bc := range []struct {
		name string
		bs   *ballSampler
	}{{"clamped", clamped}, {"broken", broken}} {
		r := bc.bs.rInt + 1
		lo, hi := make([]int, bc.bs.dim), make([]int, bc.bs.dim)
		for l := -r; l <= 0; l++ {
			for h := 0; h <= r; h++ {
				for i := range lo {
					lo[i], hi[i] = l, h
				}
				fallbacks += requireWindowsMatchPick(t, fmt.Sprintf("%s [%d, %d]", bc.name, l, h), bc.bs, lo, hi)
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no draw reached pick's fallback")
	}
}

// TestWindowModMatchesRemainder: the multiply-shift reduction equals v %
// total for every total the mobilenet-v1 samplers ask for, and for
// powers of two, their neighbours and totals up to the 2^50 count cap, at
// raw values on both sides of every multiple near the ends of [0, 2^63).
func TestWindowModMatchesRemainder(t *testing.T) {
	totals := map[int64]bool{}
	for _, radius := range []float64{1, 3, 4.5} {
		for dim := 1; dim <= 8; dim++ {
			for _, row := range newBallSampler(dim, radius).cum {
				for _, c := range row {
					totals[c] = true
				}
			}
		}
	}
	for e := 0; e <= 50; e++ {
		p := int64(1) << e
		totals[p] = true
		totals[p+1] = true
		if p > 2 {
			totals[p-1] = true
		}
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		totals[1+rnd.Int63n(1<<50)] = true
	}
	for total := range totals {
		w := newWindow(total)
		top := int64(math.MaxInt64) - int64(math.MaxInt64)%total // the largest multiple
		vs := []int64{0, 1, total - 1, total, total + 1, 2*total - 1, top - 1, top, math.MaxInt64}
		for j := 0; j < 64; j++ {
			vs = append(vs, rnd.Int63())
		}
		for _, v := range vs {
			if v < 0 {
				continue
			}
			if got, want := w.mod(v), v%total; got != want {
				t.Fatalf("total %d: mod(%d) = %d, want %d", total, v, got, want)
			}
		}
	}
}
