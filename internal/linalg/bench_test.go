package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchVecs(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
	}
	return X
}

// benchSPD builds a well-conditioned SPD matrix A = V Vᵀ + n·I.
func benchSPD(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	v := NewMatrix(n, n)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += v.At(i, k) * v.At(j, k)
			}
			if i == j {
				s += float64(n)
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	return a
}

// BenchmarkCholesky factorizes the GP evaluator's working size (MaxPoints
// defaults to 400).
func BenchmarkCholesky(b *testing.B) {
	a := benchSPD(400, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a, 1e-8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGramMatrix spans the serial/parallel crossover region; the
// committed gramParallelThreshold is picked from this sweep.
func BenchmarkGramMatrix(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256, 512} {
		vecs := benchVecs(n, 8, 2)
		k := RBFKernel{Gamma: 1.0 / 8}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GramMatrix(vecs, k)
			}
		})
	}
}

// BenchmarkGramMatrixWorkers isolates the pool-dispatch overhead the
// gramParallelThreshold comment quotes: the same build, serial vs forced
// onto the pool, at 8 feature dimensions and at conv2d's 20. The threshold
// is the smallest n where the dispatch cost disappears into the O(n²)
// kernel evaluations.
func BenchmarkGramMatrixWorkers(b *testing.B) {
	for _, d := range []int{8, 20} {
		k := RBFKernel{Gamma: 1.0 / float64(d)}
		for _, n := range []int{32, 64, 96, 128, 192, 256, 384, 512, 640} {
			vecs := benchVecs(n, d, 2)
			for _, workers := range []int{1, 2, 4} {
				b.Run(fmt.Sprintf("d=%d/n=%d/workers=%d", d, n, workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						GramMatrixParallel(vecs, k, workers)
					}
				})
			}
		}
	}
}

// BenchmarkGramBatch is one TED batch's Gram build (n=500 points of conv2d's
// 20 feature dimensions) on one worker.
func BenchmarkGramBatch(b *testing.B) {
	vecs := benchVecs(500, 20, 3)
	m := NewMatrix(0, 0)
	k := RBFKernel{Gamma: 1.0 / 20}
	for i := 0; i < b.N; i++ {
		GramMatrixInto(m, vecs, k, 1)
	}
}

// BenchmarkMulVec is TED's per-pick mat-vec over a 500×500 Gram matrix on
// one worker.
func BenchmarkMulVec(b *testing.B) {
	m := GramMatrixParallel(benchVecs(500, 8, 4), RBFKernel{Gamma: 1.0 / 8}, 1)
	x := make([]float64, 500)
	for i := range x {
		x[i] = m.At(i, 7)
	}
	dst := make([]float64, 500)
	for i := 0; i < b.N; i++ {
		m.MulVecInto(dst, x, 1)
	}
}
