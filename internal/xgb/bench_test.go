package xgb

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
			row[j] = rng.Float64()
			s += row[j] * float64(j%3)
		}
		X[i] = row
		y[i] = s + 0.1*rng.NormFloat64()
	}
	return X, y
}

// benchParams mirrors the cost-model configuration the AutoTVM-style tuner
// trains every round (see ModelTuner.xgbParams).
func benchParams() Params {
	return Params{NumRounds: 24, MaxDepth: 5, MaxBins: 24}
}

// BenchmarkXGBTrain fits the surrogate at late-run training-set size: ~512
// observations of a 12-knob space.
func BenchmarkXGBTrain(b *testing.B) {
	X, y := benchData(512, 12, 1)
	p := benchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict scores a candidate pool one row at a time, the way
// BAO's bootstrap ensemble scores its neighborhood candidates.
func BenchmarkPredict(b *testing.B) {
	X, y := benchData(512, 12, 2)
	m, err := Train(X, y, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	pool, _ := benchData(2048, 12, 3)
	b.ReportAllocs()
	b.ResetTimer()
	s := 0.0
	for i := 0; i < b.N; i++ {
		for _, x := range pool {
			s += m.Predict(x)
		}
	}
	predictSink = s
}

// predictSink keeps BenchmarkPredict's calls from being optimized away.
var predictSink float64
