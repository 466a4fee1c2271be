package xgb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeRegression builds a noisy nonlinear regression dataset.
func makeRegression(n, nfeat int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, nfeat)
		for f := range row {
			row[f] = rng.Float64()*4 - 2
		}
		X[i] = row
		y[i] = row[0]*row[0] + 2*math.Sin(row[1]*2)
		if nfeat > 2 {
			y[i] += 0.5 * row[2]
		}
		y[i] += noise * rng.NormFloat64()
	}
	return X, y
}

func mse(pred, y []float64) float64 {
	s := 0.0
	for i := range y {
		d := pred[i] - y[i]
		s += d * d
	}
	return s / float64(len(y))
}

func variance(y []float64) float64 {
	m := 0.0
	for _, v := range y {
		m += v
	}
	m /= float64(len(y))
	s := 0.0
	for _, v := range y {
		s += (v - m) * (v - m)
	}
	return s / float64(len(y))
}

// testParams is a mid-sized ensemble for the unit tests: 30 rounds of
// depth-5 trees over 32 bins.
func testParams() Params {
	return Params{NumRounds: 30, MaxDepth: 5, MaxBins: 32}
}

func TestTrainLearnsNonlinearFunction(t *testing.T) {
	X, y := makeRegression(800, 6, 0.05, 1)
	m, err := Train(X, y, testParams())
	if err != nil {
		t.Fatal(err)
	}
	trainMSE := mse(predictAll(m, X), y)
	if trainMSE > 0.1*variance(y) {
		t.Fatalf("train MSE %.4f too high (var %.4f)", trainMSE, variance(y))
	}
	// Generalization on a fresh draw of the same function.
	XT, yT := makeRegression(400, 6, 0.05, 2)
	testMSE := mse(predictAll(m, XT), yT)
	if testMSE > 0.3*variance(yT) {
		t.Fatalf("test MSE %.4f too high (var %.4f)", testMSE, variance(yT))
	}
}

func TestTrainConstantTarget(t *testing.T) {
	X, _ := makeRegression(50, 3, 0, 3)
	y := make([]float64, 50)
	for i := range y {
		y[i] = 7.5
	}
	m, err := Train(X, y, testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range predictAll(m, X) {
		if math.Abs(p-7.5) > 1e-6 {
			t.Fatalf("constant target predicted as %v", p)
		}
	}
}

func TestTrainSingleSample(t *testing.T) {
	m, err := Train([][]float64{{1, 2}}, []float64{3}, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{1, 2}); math.Abs(got-3) > 1e-9 {
		t.Fatalf("single-sample predict = %v", got)
	}
}

func TestTrainValidation(t *testing.T) {
	X := [][]float64{{1}, {2}}
	y := []float64{1, 2}
	if _, err := Train(nil, nil, testParams()); err == nil {
		t.Fatal("empty data should error")
	}
	if _, err := Train(X, []float64{1}, testParams()); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Train([][]float64{{}, {}}, y, testParams()); err == nil {
		t.Fatal("zero features should error")
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, y, testParams()); err == nil {
		t.Fatal("ragged rows should error")
	}
	bad := testParams()
	bad.NumRounds = 0
	if _, err := Train(X, y, bad); err == nil {
		t.Fatal("zero rounds should error")
	}
	bad = testParams()
	bad.MaxDepth = 0
	if _, err := Train(X, y, bad); err == nil {
		t.Fatal("zero depth should error")
	}
	bad = testParams()
	bad.MaxBins = 1
	if _, err := Train(X, y, bad); err == nil {
		t.Fatal("one bin should error")
	}
}

func TestPredictPanicsOnWrongDim(t *testing.T) {
	X, y := makeRegression(50, 4, 0, 4)
	m, err := Train(X, y, testParams())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Predict([]float64{1, 2})
}

func TestDeterministicTraining(t *testing.T) {
	X, y := makeRegression(300, 5, 0.1, 5)
	p := testParams()
	p.Objective = ObjPairwiseRank // the objective that draws from the RNG
	p.Seed = 42
	m1, err := Train(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if m1.Predict(X[i]) != m2.Predict(X[i]) {
			t.Fatal("same-seed training must be deterministic")
		}
	}
}

func TestMoreRoundsReduceTrainError(t *testing.T) {
	X, y := makeRegression(500, 5, 0.05, 7)
	p := testParams()
	p.NumRounds = 5
	m5, _ := Train(X, y, p)
	p.NumRounds = 60
	m60, _ := Train(X, y, p)
	if mse(predictAll(m60, X), y) >= mse(predictAll(m5, X), y) {
		t.Fatal("more boosting rounds should fit train data better")
	}
	if m60.NumTrees() != 60 || m5.NumTrees() != 5 {
		t.Fatal("NumTrees wrong")
	}
}

func TestNumFeatures(t *testing.T) {
	X, y := makeRegression(50, 7, 0, 9)
	m, _ := Train(X, y, testParams())
	if m.NumFeatures() != 7 {
		t.Fatalf("NumFeatures = %d", m.NumFeatures())
	}
}

func TestBinIndex(t *testing.T) {
	edges := []float64{1, 3, 5}
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {5, 2}, {99, 2},
	}
	for _, c := range cases {
		if got := binIndex(edges, c.v); got != c.want {
			t.Errorf("binIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBinnerHandlesConstantFeature(t *testing.T) {
	X := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []float64{1, 2, 3, 4}
	m, err := Train(X, y, testParams())
	if err != nil {
		t.Fatal(err)
	}
	// Must learn from feature 0 despite the constant feature 1.
	if math.Abs(m.Predict([]float64{1, 5})-m.Predict([]float64{4, 5})) < 0.5 {
		t.Fatal("model ignored the informative feature")
	}
}

func TestDuplicateRows(t *testing.T) {
	// Identical inputs with conflicting labels must not loop or crash.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	y := []float64{0, 1, 0.5, 3}
	m, err := Train(X, y, testParams())
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict([]float64{1, 1})
	if p < 0 || p > 1 {
		t.Fatalf("conflicting labels should predict near their mean, got %v", p)
	}
}

// Property: predictions are invariant to prediction order and finite for
// random inputs inside and outside the training range.
func TestPredictFiniteProperty(t *testing.T) {
	X, y := makeRegression(200, 4, 0.1, 10)
	m, err := Train(X, y, testParams())
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, d float64) bool {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := m.Predict([]float64{a, b, c, d})
		return !math.IsNaN(p) && !math.IsInf(p, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: model ranks a clearly-better point above a clearly-worse one on
// a monotone target (rank quality is what the tuner consumes).
func TestMonotoneRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 10
		X[i] = []float64{x, rng.Float64()}
		y[i] = x
	}
	m, err := Train(X, y, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{9, 0.5}) <= m.Predict([]float64{1, 0.5}) {
		t.Fatal("monotone target should rank correctly")
	}
}

func BenchmarkTrain600x18(b *testing.B) {
	X, y := makeRegression(600, 18, 0.05, 12)
	p := testParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, p); err != nil {
			b.Fatal(err)
		}
	}
}
