//go:build !amd64 || purego

package linalg

// gramFMA is false without the amd64 assembly: the RBF Gram build runs
// the scalar loop, which yields the same bits.
func gramFMA() bool { return false }

// gramRowFMA is never called when gramFMA is false; it writes nothing and
// reports the first block as unprocessed.
func gramRowFMA(row, vi, xt []float64, stride, j, jend int, negGamma float64) int { return j }
