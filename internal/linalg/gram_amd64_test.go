//go:build amd64 && !purego

package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// expViaKernel evaluates exp over src the way the Gram kernel does: the
// vector kernel for 4-blocks inside its window, math.Exp for any other
// block and for the tail.
func expViaKernel(dst, src []float64) {
	j := 0
	for j+4 <= len(src) {
		j += expBlocksFMA(dst[j:], src[j:])
		if j+4 <= len(src) {
			for e := j; e < j+4; e++ {
				dst[e] = math.Exp(src[e])
			}
			j += 4
		}
	}
	for ; j < len(src); j++ {
		dst[j] = math.Exp(src[j])
	}
}

// TestExpKernelMatchesMathExp compares the vector exp with math.Exp on
// over 4M arguments: random bit patterns, a dense sweep of the window
// [-708, 0], the window's lower edge [-708.5, -707.5], signed zeros,
// arguments with subnormal or zero results, NaN, ±Inf, arguments above
// the overflow threshold 709.78, and blocks mixing safe and unsafe lanes.
// It also checks that the kernel hands back exactly the blocks with a lane
// outside the window.
func TestExpKernelMatchesMathExp(t *testing.T) {
	if !gramFMA() {
		t.Skip("vector exp kernel not enabled on this machine")
	}
	rng := rand.New(rand.NewSource(2718))
	var src []float64
	for i := 0; i < 1<<20; i++ {
		src = append(src, math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 1<<21; i++ {
		src = append(src, -708*rng.Float64())
	}
	for i := 0; i < 1<<18; i++ {
		src = append(src, -708.5+rng.Float64())
	}
	for i := 0; i < 1<<16; i++ {
		src = append(src, -745.2+37*rng.Float64(), 709.78+rng.Float64(), -1e-300*rng.Float64())
	}
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 709.782712893384, 710, -708, -708.0000000000001, -5e-324, math.MaxFloat64, -math.MaxFloat64}
	for i := 0; i < 1<<18; i++ {
		// A block of three window lanes and one special lane, in every
		// lane position.
		src = append(src, -708*rng.Float64(), -708*rng.Float64(), -708*rng.Float64(), -708*rng.Float64())
		src[len(src)-1-rng.Intn(4)] = special[rng.Intn(len(special))]
	}
	if len(src) < 4_000_000 {
		t.Fatalf("only %d inputs", len(src))
	}
	dst := make([]float64, len(src))
	expViaKernel(dst, src)
	for i, x := range src {
		if want := math.Exp(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("exp(%v) [%x] = %x, math.Exp %x", x, math.Float64bits(x), math.Float64bits(dst[i]), math.Float64bits(want))
		}
	}
	for _, tc := range []struct {
		block []float64
		take  int
	}{
		{[]float64{-1, -2, -3, -4, -5, -6, -7, math.NaN()}, 4},
		{[]float64{-1, -2, -3, 0.5, -5, -6, -7, -8}, 0},
		{[]float64{-708, -708, -708, -708, -708.0000000000001, -1, -1, -1}, 4},
		{[]float64{math.Copysign(0, -1), 0, -0.1, -700, -1, -1, -1}, 4},
	} {
		if got := expBlocksFMA(make([]float64, len(tc.block)), tc.block); got != tc.take {
			t.Fatalf("%v: kernel took %d elements, want %d", tc.block, got, tc.take)
		}
	}
}

// expEmulated evaluates math.Exp's amd64 code for an argument in [-708, 0]
// in Go: the AVX+FMA path with fma, the SSE2 path without. Every product
// that path rounds on its own is forced through a float64 conversion, so
// the compiler cannot fuse it.
func expEmulated(x float64, fma bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	horner := []float64{2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0}
	k := math.RoundToEven(float64(log2e * x))
	if fma {
		x = math.FMA(-k, ln2u, x)
		x = math.FMA(-k, ln2l, x)
	} else {
		x -= float64(k * ln2u)
		x -= float64(k * ln2l)
	}
	x *= 0.0625
	p := horner[0]
	for _, c := range horner[1:] {
		if fma {
			p = math.FMA(p, x, c)
		} else {
			p = float64(p*x) + c
		}
	}
	x *= p
	for i := 0; i < 3; i++ {
		x *= x + 2
	}
	if fma {
		x = math.FMA(x, x+2, 1)
	} else {
		x = float64(x*(x+2)) + 1
	}
	return x * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// mathExpPath reports, on the self-check's probes, whether math.Exp
// matches the emulation of its FMA code, of its non-FMA code, and on how
// many probes the two emulations differ.
func mathExpPath() (fma, plain bool, differ int) {
	fma, plain = true, true
	for _, x := range expProbes() {
		f, p, m := expEmulated(x, true), expEmulated(x, false), math.Exp(x)
		if math.Float64bits(f) != math.Float64bits(p) {
			differ++
		}
		fma = fma && math.Float64bits(m) == math.Float64bits(f)
		plain = plain && math.Float64bits(m) == math.Float64bits(p)
	}
	return fma, plain, differ
}

// TestExpProbesSeparateFMAPaths: the self-check only protects bit-identity
// if its probes tell math.Exp's FMA and non-FMA code apart, and the
// emulations only say which code runs if math.Exp is one of them.
func TestExpProbesSeparateFMAPaths(t *testing.T) {
	fma, plain, differ := mathExpPath()
	if differ == 0 {
		t.Fatal("no probe tells the FMA and non-FMA exp apart")
	}
	if !fma && !plain {
		t.Fatal("math.Exp matches neither emulation on the probes")
	}
	t.Logf("%d of %d probes differ; math.Exp uses FMA: %v", differ, len(expProbes()), fma)
}

// TestGramKernelEnabled: the vector kernel must be enabled exactly when the
// CPU has AVX2+FMA and math.Exp runs its FMA code. Disabled on such a
// machine means the self-check found the kernel inexact; enabled without
// math.Exp's FMA code means the self-check let a mismatch through.
func TestGramKernelEnabled(t *testing.T) {
	fma, _, _ := mathExpPath()
	if want := cpuHasAVX2FMA() && fma; gramFMA() != want {
		t.Fatalf("gramFMA() = %v, want %v (cpu AVX2+FMA %v, math.Exp FMA path %v)", gramFMA(), want, cpuHasAVX2FMA(), fma)
	}
}

// BenchmarkExp compares the vector exp with math.Exp per value, on
// arguments spread over the kernel's window.
func BenchmarkExp(b *testing.B) {
	src := make([]float64, 1024)
	for i := range src {
		src[i] = -708 * float64(i) / float64(len(src))
	}
	dst := make([]float64, len(src))
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			expViaKernel(dst, src)
		}
	})
	b.Run("math.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range src {
				dst[j] = math.Exp(x)
			}
		}
	})
}
