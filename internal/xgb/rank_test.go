package xgb

import (
	"math/rand"
	"sort"
	"testing"
)

// kendallTau returns the rank correlation between predictions and targets.
func kendallTau(pred, y []float64) float64 {
	n := len(y)
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dp := pred[i] - pred[j]
			dy := y[i] - y[j]
			switch {
			case dp*dy > 0:
				concordant++
			case dp*dy < 0:
				discordant++
			}
		}
	}
	total := concordant + discordant
	if total == 0 {
		return 0
	}
	return float64(concordant-discordant) / float64(total)
}

func TestRankObjectiveLearnsOrdering(t *testing.T) {
	X, y := makeRegression(500, 5, 0.05, 21)
	p := testParams()
	p.Objective = ObjPairwiseRank
	p.NumRounds = 40
	m, err := Train(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	XT, yT := makeRegression(200, 5, 0.0, 22)
	tau := kendallTau(predictAll(m, XT), yT)
	if tau < 0.55 {
		t.Fatalf("rank model Kendall tau %.3f too low", tau)
	}
}

func TestRankObjectiveScaleInvariance(t *testing.T) {
	// Multiplying targets by a huge constant must not change the learned
	// ordering (the point of a rank loss).
	X, y := makeRegression(300, 4, 0.05, 23)
	yScaled := make([]float64, len(y))
	for i, v := range y {
		yScaled[i] = v * 1e9
	}
	p := testParams()
	p.Objective = ObjPairwiseRank
	p.Seed = 5
	m1, err := Train(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, yScaled, p)
	if err != nil {
		t.Fatal(err)
	}
	p1 := predictAll(m1, X)
	p2 := predictAll(m2, X)
	if tau := kendallTau(p1, p2); tau < 0.999 {
		t.Fatalf("scaled targets changed the ordering: tau %.4f", tau)
	}
}

func TestRankObjectiveTiedTargets(t *testing.T) {
	// All-equal targets: every pair ties, gradients vanish, training must
	// still terminate and predict something finite.
	X, _ := makeRegression(60, 3, 0, 24)
	y := make([]float64, 60)
	for i := range y {
		y[i] = 1
	}
	p := testParams()
	p.Objective = ObjPairwiseRank
	m, err := Train(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range predictAll(m, X) {
		if v != v {
			t.Fatal("NaN prediction on tied targets")
		}
	}
}

func TestRankParamsValidation(t *testing.T) {
	X := [][]float64{{1}, {2}}
	y := []float64{1, 2}
	p := testParams()
	p.Objective = Objective(99)
	if _, err := Train(X, y, p); err == nil {
		t.Fatal("unknown objective should error")
	}
}

func TestRankBeatsRegressionOnSkewedTargets(t *testing.T) {
	// Heavy-tailed targets (a few huge outliers) wreck squared-error leaf
	// fits but barely affect a rank loss. Compare test-set ordering.
	rng := rand.New(rand.NewSource(25))
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X[i] = x
		base := x[0] + 0.5*x[1]
		y[i] = base
		if rng.Float64() < 0.03 {
			y[i] = base * 1e6 // outlier scale
		}
	}
	pr := testParams()
	pr.Objective = ObjPairwiseRank
	pr.NumRounds = 40
	rankM, err := Train(X, y, pr)
	if err != nil {
		t.Fatal(err)
	}
	regM, err := Train(X, y, testParams())
	if err != nil {
		t.Fatal(err)
	}
	// Clean test targets: the true base function.
	XT := make([][]float64, 150)
	yT := make([]float64, 150)
	for i := range XT {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		XT[i] = x
		yT[i] = x[0] + 0.5*x[1]
	}
	tauRank := kendallTau(predictAll(rankM, XT), yT)
	tauReg := kendallTau(predictAll(regM, XT), yT)
	if tauRank <= tauReg {
		t.Fatalf("rank tau %.3f should beat regression tau %.3f on skewed targets", tauRank, tauReg)
	}
}

func TestRankGradientsDirection(t *testing.T) {
	// With pred all equal, the higher-y item must receive negative gradient
	// (pushed up: leaf value is -G/(H+lambda)).
	pred := []float64{0, 0}
	y := []float64{1, 2}
	grad := make([]float64, 2)
	hess := make([]float64, 2)
	rng := rand.New(rand.NewSource(1))
	rankGradients(pred, y, grad, hess, rng)
	if !(grad[1] < 0 && grad[0] > 0) {
		t.Fatalf("gradients wrong direction: %v", grad)
	}
	if hess[0] <= 0 || hess[1] <= 0 {
		t.Fatalf("hessians must be positive: %v", hess)
	}
	// Antisymmetry of the accumulated pair gradients.
	if g := grad[0] + grad[1]; g > 1e-12 || g < -1e-12 {
		t.Fatalf("pair gradients should cancel: %v", grad)
	}
}

func TestRankPredictionsCorrelateWithSortOrder(t *testing.T) {
	X, y := makeRegression(200, 4, 0.0, 26)
	p := testParams()
	p.Objective = ObjPairwiseRank
	m, err := Train(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	pred := predictAll(m, X)
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pred[idx[a]] > pred[idx[b]] })
	// The top-20 by prediction should have a much higher mean target than
	// the bottom-20.
	top, bot := 0.0, 0.0
	for i := 0; i < 20; i++ {
		top += y[idx[i]]
		bot += y[idx[len(idx)-1-i]]
	}
	if top <= bot {
		t.Fatalf("top-by-prediction mean %.2f should beat bottom %.2f", top/20, bot/20)
	}
}
