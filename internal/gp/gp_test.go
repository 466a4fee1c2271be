package gp

import (
	"math"
	"math/rand"
	"testing"
)

func makeData(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 4}
		X[i] = x
		y[i] = math.Sin(x[0]) + 0.5*math.Cos(2*x[1]) + noise*rng.NormFloat64()
	}
	return X, y
}

func TestGPInterpolates(t *testing.T) {
	X, y := makeData(120, 0.01, 1)
	m, err := Train(X, y, Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Predictions at training points should be close to targets.
	sse := 0.0
	for i := range X {
		d := m.Predict(X[i]) - y[i]
		sse += d * d
	}
	if rmse := math.Sqrt(sse / float64(len(X))); rmse > 0.15 {
		t.Fatalf("train RMSE %.3f too high", rmse)
	}
	// Generalization at fresh points.
	XT, yT := makeData(60, 0.0, 2)
	sse = 0
	for i := range XT {
		d := m.Predict(XT[i]) - yT[i]
		sse += d * d
	}
	if rmse := math.Sqrt(sse / float64(len(XT))); rmse > 0.3 {
		t.Fatalf("test RMSE %.3f too high", rmse)
	}
}

func TestGPValidation(t *testing.T) {
	if _, err := Train(nil, nil, Params{}); err == nil {
		t.Fatal("empty data should error")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Params{}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Train([][]float64{{}}, []float64{1}, Params{}); err == nil {
		t.Fatal("zero features should error")
	}
}

func TestGPSubsampling(t *testing.T) {
	X, y := makeData(500, 0.05, 4)
	m, err := Train(X, y, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPoints() != maxPoints {
		t.Fatalf("retained %d points, want %d", m.NumPoints(), maxPoints)
	}
}

func TestGPDuplicateInputs(t *testing.T) {
	// Exact duplicates make the kernel singular without jitter; training
	// must still succeed through the jitter escalation.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	y := []float64{0.9, 1.1, 1.0, 3}
	m, err := Train(X, y, Params{})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict([]float64{1, 1})
	if p < 0.5 || p > 1.5 {
		t.Fatalf("duplicate-input prediction %v should be near 1", p)
	}
}

func TestGPConstantTarget(t *testing.T) {
	X, _ := makeData(40, 0, 5)
	y := make([]float64, 40)
	for i := range y {
		y[i] = 2.5
	}
	m, err := Train(X, y, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{9, 9}); math.Abs(got-2.5) > 0.1 {
		t.Fatalf("constant target far prediction %v", got)
	}
}

func TestMedianHeuristic(t *testing.T) {
	if got := medianHeuristic([][]float64{{0}}); got != 1 {
		t.Fatalf("singleton heuristic = %v", got)
	}
	got := medianHeuristic([][]float64{{0}, {3}, {0}})
	// pairwise distances: 3, 0, 3 -> median 3.
	if got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
}
