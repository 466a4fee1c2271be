package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randVecs(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	return vecs
}

// TestGramMatrixParallelWorkerInvariance: every (i, j) kernel entry is
// evaluated exactly once by exactly one worker, so the matrix must be
// bit-identical for any worker count.
func TestGramMatrixParallelWorkerInvariance(t *testing.T) {
	// More rows than gramParallelThreshold, so GramMatrix itself takes the
	// pooled path.
	vecs := randVecs(gramParallelThreshold+22, 6, 5)
	for _, k := range []Kernel{RBFKernel{Gamma: 0.5}, LinearKernel{}, DistanceKernel{}} {
		ref := GramMatrixParallel(vecs, k, 1)
		for _, workers := range []int{4, 8} {
			got := GramMatrixParallel(vecs, k, workers)
			for i := range ref.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
					t.Fatalf("%s: entry %d differs between workers=1 and workers=%d", k.Name(), i, workers)
				}
			}
		}
		auto := GramMatrix(vecs, k)
		for i := range ref.Data {
			if math.Float64bits(auto.Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("%s: GramMatrix differs from serial GramMatrixParallel at %d", k.Name(), i)
			}
		}
	}
}

// TestGramMatrixParallelSymmetric checks both mirror slots are written.
func TestGramMatrixParallelSymmetric(t *testing.T) {
	vecs := randVecs(37, 4, 9)
	m := GramMatrixParallel(vecs, RBFKernel{Gamma: 1}, 8)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if math.Float64bits(m.At(i, j)) != math.Float64bits(m.At(j, i)) {
				t.Fatalf("asymmetry at (%d, %d)", i, j)
			}
		}
	}
}
