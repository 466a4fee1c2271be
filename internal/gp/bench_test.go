package gp

import (
	"math/rand"
	"testing"
)

func benchData(n, d int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		s := 0.0
		for j := range row {
			row[j] = rng.NormFloat64()
			s += row[j]
		}
		X[i] = row
		y[i] = s
	}
	return X, y
}

// BenchmarkGPTrain fits the GP evaluator at its training-set cap (400
// points): kernel build plus Cholesky factorization.
func BenchmarkGPTrain(b *testing.B) {
	X, y := benchData(400, 8, 1)
	p := Params{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPPredict scores a candidate pool point-by-point, the access
// pattern of BootstrapSelect's scoring stage.
func BenchmarkGPPredict(b *testing.B) {
	X, y := benchData(400, 8, 2)
	m, err := Train(X, y, Params{})
	if err != nil {
		b.Fatal(err)
	}
	pool, _ := benchData(256, 8, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range pool {
			m.Predict(x)
		}
	}
}
