package rf

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
		x := []float64{rng.Float64() * 4, rng.Float64() * 4, rng.Float64()}
		X[i] = x
		y[i] = x[0]*x[0] - 3*x[1] + noise*rng.NormFloat64()
	}
	return X, y
}

func mse(m *Model, X [][]float64, y []float64) float64 {
	s := 0.0
	for i := range X {
		d := m.Predict(X[i]) - y[i]
		s += d * d
	}
	return s / float64(len(X))
}

func TestForestLearns(t *testing.T) {
	X, y := makeData(600, 0.1, 1)
	m, err := Train(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTrees() != numTrees {
		t.Fatalf("trees = %d", m.NumTrees())
	}
	varY := 0.0
	meanY := 0.0
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(len(y))
	for _, v := range y {
		varY += (v - meanY) * (v - meanY)
	}
	varY /= float64(len(y))
	if got := mse(m, X, y); got > 0.15*varY {
		t.Fatalf("train MSE %.4f too high (var %.4f)", got, varY)
	}
	XT, yT := makeData(200, 0.0, 2)
	if got := mse(m, XT, yT); got > 0.3*varY {
		t.Fatalf("test MSE %.4f too high (var %.4f)", got, varY)
	}
}

func TestForestValidation(t *testing.T) {
	X := [][]float64{{1}, {2}}
	y := []float64{1, 2}
	if _, err := Train(nil, nil, 0); err == nil {
		t.Fatal("empty should error")
	}
	if _, err := Train(X, []float64{1}, 0); err == nil {
		t.Fatal("mismatch should error")
	}
	if _, err := Train([][]float64{{}, {}}, y, 0); err == nil {
		t.Fatal("zero features should error")
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, y, 0); err == nil {
		t.Fatal("ragged should error")
	}
}

func TestForestDeterministic(t *testing.T) {
	X, y := makeData(200, 0.1, 3)
	a, err := Train(X, y, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(X, y, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if a.Predict(X[i]) != b.Predict(X[i]) {
			t.Fatal("same seed must be deterministic")
		}
	}
}

func TestForestConstantTarget(t *testing.T) {
	X, _ := makeData(50, 0, 5)
	y := make([]float64, 50)
	for i := range y {
		y[i] = 4.2
	}
	m, err := Train(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(X[3]); math.Abs(got-4.2) > 1e-9 {
		t.Fatalf("constant predict %v", got)
	}
}

func TestForestPredictPanicsOnDim(t *testing.T) {
	X, y := makeData(50, 0, 6)
	m, err := Train(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Predict([]float64{1})
}

func TestForestMinLeafRespected(t *testing.T) {
	// Three rows cannot split into two leaves of minLeaf (2) rows each, so
	// every tree is a single leaf.
	X, y := makeData(3, 0.1, 7)
	m, err := Train(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range m.trees {
		if len(tr.nodes) != 1 {
			t.Fatalf("tree has %d nodes on 3 rows despite minLeaf %d", len(tr.nodes), minLeaf)
		}
	}
}

func TestForestDuplicateRows(t *testing.T) {
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []float64{1, 2, 3, 4}
	m, err := Train(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Predict([]float64{1, 1})
	if got < 1 || got > 4 {
		t.Fatalf("degenerate predict %v", got)
	}
}
