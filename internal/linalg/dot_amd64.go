//go:build amd64 && !purego

package linalg

// laneDotSSE2 computes the canonical 8-lane inner product (see
// laneDotGeneric for the bit-exact specification) with SSE2 packed
// arithmetic — part of the amd64 baseline, so it needs no CPU-feature
// detection. len(b) must be at least len(a).
//
//go:noescape
func laneDotSSE2(a, b []float64) float64

// laneDotAVX is laneDotSSE2 with 256-bit registers: two 4-wide accumulators
// hold the same eight lanes (indices mod 8) and reduce with the same fixed
// tree, so the result is bit-identical — AVX multiplies and adds round each
// lane exactly like their scalar/SSE2 counterparts (no FMA is used). Only
// called when cpuHasAVX reports AVX plus OS ymm-state support.
//
//go:noescape
func laneDotAVX(a, b []float64) float64

// laneDot4AVX sets out[r] to the canonical 8-lane inner product of the
// first len(x) elements of a_r with x, for four rows at once (see
// dot_amd64.s). Each a_r must hold at least len(x) elements. Only called
// when cpuHasAVX reports AVX plus OS ymm-state support.
//
//go:noescape
func laneDot4AVX(a0, a1, a2, a3, x []float64, out *[4]float64)

// cpuHasAVX reports CPUID AVX+OSXSAVE and XGETBV xmm/ymm state enablement.
func cpuHasAVX() bool

// laneDotImpl is fixed at init, so dispatch is one indirect call and the
// choice never varies within a process (nor, numerically, across machines).
var laneDotImpl = laneDotSSE2

// hasAVX selects the AVX kernels; like laneDotImpl it is fixed at init.
var hasAVX = cpuHasAVX()

func init() {
	if hasAVX {
		laneDotImpl = laneDotAVX
	}
}

func laneDot(a, b []float64) float64 { return laneDotImpl(a, b) }

// laneDot4 sets out[r] = laneDot(a_r[:len(x)], x) for four rows, with one
// pass over x when AVX is available. Each a_r must hold at least len(x)
// elements.
func laneDot4(a0, a1, a2, a3, x []float64, out *[4]float64) {
	a0, a1, a2, a3 = a0[:len(x)], a1[:len(x)], a2[:len(x)], a3[:len(x)]
	if hasAVX {
		laneDot4AVX(a0, a1, a2, a3, x, out)
		return
	}
	out[0] = laneDotSSE2(a0, x)
	out[1] = laneDotSSE2(a1, x)
	out[2] = laneDotSSE2(a2, x)
	out[3] = laneDotSSE2(a3, x)
}

// addSquares accumulates dst[j] += src[j]² with SSE2 packed arithmetic.
// Per-element accumulation order is untouched (each dst[j] is independent),
// so the result is bit-identical to addSquaresGeneric. len(src) must be at
// least len(dst).
//
//go:noescape
func addSquares(dst, src []float64)
