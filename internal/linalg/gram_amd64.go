//go:build amd64 && !purego

package linalg

import (
	"math"
	"sync"
)

// cpuHasAVX2FMA reports CPUID AVX, AVX2 and FMA plus OS ymm-state support.
func cpuHasAVX2FMA() bool

// expBlocksFMA writes dst[j] = exp(src[j]) for the leading 4-blocks of src
// whose lanes all lie in [-708, 0], and returns how many elements it wrote
// (a multiple of 4; it stops at the first block with a lane outside). Each
// lane repeats math.Exp's amd64 AVX+FMA instruction sequence.
//
//go:noescape
func expBlocksFMA(dst, src []float64) int

// gramRowFMA is the RBF Gram vector kernel (see gram_amd64.s and
// gramRowRBF). It reads xt[k*stride+c] for k < len(vi) and c in [j, jend),
// and writes row[j:jend]; callers guarantee those ranges.
//
//go:noescape
func gramRowFMA(row, vi, xt []float64, stride, j, jend int, negGamma float64) int

// gramFMA reports whether the vector RBF kernel is enabled. The CPU must
// have AVX2 and FMA, and the kernel must reproduce math.Exp and the scalar
// Gram entries bit for bit on a fixed probe set: math.Exp itself switches
// to its non-FMA code when FMA is masked off (GODEBUG=cpu.fma=off), and
// the kernel then has to stand down, since it only ever repeats the FMA
// code. The check runs once, at the first RBF Gram build, so processes
// that build none do not pay for it at start-up.
var gramFMA = sync.OnceValue(func() bool { return cpuHasAVX2FMA() && gramSelfCheck() })

// expProbes is the self-check's input set: both signed zeros, -708, the
// negative number nearest zero and 252 arguments spread over [-708, 0] by
// a fixed Weyl sequence.
// TestExpProbesSeparateFMAPaths pins that the set tells math.Exp's FMA and
// non-FMA code apart.
func expProbes() []float64 {
	p := []float64{0, math.Copysign(0, -1), -708, -5e-324}
	frac := 0.0
	for len(p) < 256 {
		frac += 0.6180339887498949
		frac -= math.Floor(frac)
		p = append(p, -708*frac)
	}
	return p
}

// gramSelfCheck runs the kernels on the probe set and on a small fixed
// Gram build and compares them with math.Exp and the scalar Gram loop bit
// for bit. The build has 32 points of dimension 13 (three accumulating
// 4-blocks and the serial tail of the distance), enough entries that a
// distance rounded differently anywhere in the kernel shows in some of
// them. It costs about 30 µs.
func gramSelfCheck() bool {
	src := expProbes()
	dst := make([]float64, len(src))
	if expBlocksFMA(dst, src) != len(src) {
		return false
	}
	for i, x := range src {
		if math.Float64bits(dst[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	// Coordinates up to 17.7 apart give exponents down to about -300,
	// where a last-ulp change in a distance shows in the entry.
	const n, d, gamma = 32, 13, 1.0 / 13
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, d)
		for k := range vecs[i] {
			vecs[i][k] = src[(i*d+k)%len(src)] / 40
		}
	}
	buf := transposeFeatures(vecs)
	defer gramScratch.Put(buf)
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		gramRowRBF(m, vecs, *buf, i, gamma)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			want := math.Exp(-gamma * dist2Lanes(vecs[i], vecs[j]))
			if math.Float64bits(m.At(i, j)) != math.Float64bits(want) {
				return false
			}
		}
	}
	return true
}
