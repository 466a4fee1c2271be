//go:build !amd64 || purego

package linalg

func laneDot(a, b []float64) float64 { return laneDotGeneric(a, b) }

func addSquares(dst, src []float64) { addSquaresGeneric(dst, src) }

func laneDot4(a0, a1, a2, a3, x []float64, out *[4]float64) {
	a0, a1, a2, a3 = a0[:len(x)], a1[:len(x)], a2[:len(x)], a3[:len(x)]
	out[0] = laneDotGeneric(a0, x)
	out[1] = laneDotGeneric(a1, x)
	out[2] = laneDotGeneric(a2, x)
	out[3] = laneDotGeneric(a3, x)
}
