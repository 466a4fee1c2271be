package xgb

import (
	"math"
	"testing"
)

// trainPreds trains with the given worker count and returns the batch
// predictions over the training rows.
func trainPreds(t *testing.T, X [][]float64, y []float64, p Params, workers int) (*Model, []float64) {
	t.Helper()
	p.Workers = workers
	m, err := Train(X, y, p)
	if err != nil {
		t.Fatalf("Train(workers=%d): %v", workers, err)
	}
	return m, predictAll(m, X)
}

// predictAll scores every row of X with Predict.
func predictAll(m *Model, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

// TestXGBTrainWorkerCountInvariance pins the bit-identity contract of the
// parallel training path: binning and split search must produce the
// identical model for every worker count, under both objectives (the rank
// objective's RNG draws stay on the calling goroutine regardless of
// workers).
func TestXGBTrainWorkerCountInvariance(t *testing.T) {
	X, y := benchData(700, 11, 17)
	for _, obj := range []Objective{ObjSquaredError, ObjPairwiseRank} {
		p := Params{NumRounds: 12, MaxDepth: 5, MaxBins: 24, Objective: obj, Seed: 42}
		mRef, ref := trainPreds(t, X, y, p, 1)
		for _, workers := range []int{4, 8} {
			m, got := trainPreds(t, X, y, p, workers)
			if m.NumTrees() != mRef.NumTrees() {
				t.Fatalf("obj=%d workers=%d: %d trees, want %d", obj, workers, m.NumTrees(), mRef.NumTrees())
			}
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("obj=%d workers=%d: pred[%d]=%x, serial %x",
						obj, workers, i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
				}
			}
		}
	}
}

// TestXGBLeafDeltaMatchesPredict pins the contract Train's prediction
// update relies on: the leaf weight a row settles into during the
// build (via bin comparisons) is bit-identical to walking the finished tree
// with threshold comparisons.
func TestXGBLeafDeltaMatchesPredict(t *testing.T) {
	X, y := benchData(400, 7, 9)
	p := testParams()
	p.MaxBins = 16
	b := newBinner(X, p.MaxBins, 1)
	n := len(X)
	grad := make([]float64, n)
	hess := make([]float64, n)
	for i := range grad {
		grad[i] = -y[i]
		hess[i] = 1
	}
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	ws := newTreeScratch(n, len(X[0]), p.MaxBins)
	m := &Model{nfeat: len(X[0]), off: []int32{0}}
	growTree(m, b, grad, hess, rows, p, ws, 1)
	for i := range X {
		want := m.leafWalk(0, X[i])
		if math.Float64bits(ws.leaf[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: leaf delta %x, predict %x", i, math.Float64bits(ws.leaf[i]), math.Float64bits(want))
		}
	}
}
