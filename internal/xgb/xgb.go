// Package xgb implements gradient-boosted regression trees in the style of
// XGBoost (Chen & Guestrin 2016): second-order boosting with L2-regularized
// leaf weights, a minimum child hessian, and shrinkage. Split finding uses
// histogram binning (XGBoost's `hist`
// method), which keeps training fast enough for the paper's BAO loop, which
// retrains Γ bootstrap models on every optimization step.
//
// The package is the reproduction's stand-in for the XGBoost evaluation
// function inside AutoTVM; the advanced active-learning framework is
// explicitly agnostic to the concrete evaluation function, so any
// Regressor implementation can be swapped in.
package xgb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/par"
)

// Objective selects the training loss.
type Objective int

// Training objectives.
const (
	// ObjSquaredError is plain least-squares regression.
	ObjSquaredError Objective = iota
	// ObjPairwiseRank is a LambdaRank-style pairwise logistic loss: the
	// model learns to order configurations rather than predict absolute
	// GFLOPS, which is what AutoTVM's cost model actually optimizes and
	// is robust to the heavy-tailed scale of throughput values.
	ObjPairwiseRank
)

// The booster's fixed settings: AutoTVM's compact cost-model regularization.
// Every tree sees every row and every feature.
const (
	eta            = 0.25 // shrinkage (learning rate)
	lambda         = 1.0  // L2 regularization of leaf weights
	minChildWeight = 1.0  // minimum hessian sum per child
	// rankPairs is the number of comparison partners sampled per item and
	// round under ObjPairwiseRank.
	rankPairs = 4
)

// Params configures training.
type Params struct {
	NumRounds int       // number of boosting rounds (trees)
	MaxDepth  int       // maximum tree depth
	MaxBins   int       // histogram bins per feature
	Objective Objective // loss (default squared error)
	Seed      int64     // RNG seed for pair sampling
	// Workers caps the goroutines used for binning and split search; <= 0
	// means par.Workers(). The trained model is bit-identical for every
	// value: all RNG draws stay on the calling goroutine, and every
	// parallel stage either works on disjoint per-row/per-feature state or
	// folds serially in a fixed order.
	Workers int
}

func (p Params) validate() error {
	if p.NumRounds <= 0 {
		return errors.New("xgb: NumRounds must be positive")
	}
	if p.MaxDepth <= 0 {
		return errors.New("xgb: MaxDepth must be positive")
	}
	if p.MaxBins < 2 || p.MaxBins > 256 {
		return errors.New("xgb: MaxBins must be in [2, 256]")
	}
	if p.Objective != ObjSquaredError && p.Objective != ObjPairwiseRank {
		return errors.New("xgb: unknown objective")
	}
	return nil
}

// Train fits a boosted ensemble to (X, y) with squared-error loss.
func Train(X [][]float64, y []float64, p Params) (*Model, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := len(X)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("xgb: need matching non-empty X (%d) and y (%d)", n, len(y))
	}
	nfeat := len(X[0])
	if nfeat == 0 {
		return nil, errors.New("xgb: zero feature dimension")
	}
	for i, row := range X {
		if len(row) != nfeat {
			return nil, fmt.Errorf("xgb: row %d has %d features, want %d", i, len(row), nfeat)
		}
	}

	base := 0.0
	if p.Objective == ObjSquaredError {
		for _, v := range y {
			base += v
		}
		base /= float64(n)
	} // rank scores are relative; a zero base keeps them centered

	workers := p.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	b := newBinner(X, p.MaxBins, workers)
	rng := rand.New(rand.NewSource(p.Seed))
	m := &Model{base: base, nfeat: nfeat, off: []int32{0}}

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	ws := newTreeScratch(n, nfeat, p.MaxBins)
	rows := make([]int32, n)

	for round := 0; round < p.NumRounds; round++ {
		switch p.Objective {
		case ObjPairwiseRank:
			rankGradients(pred, y, grad, hess, rng)
		default:
			for i := range grad {
				grad[i] = pred[i] - y[i] // d/dp 0.5*(p-y)^2
				hess[i] = 1
			}
		}
		for i := range rows {
			rows[i] = int32(i)
		}
		growTree(m, b, grad, hess, rows, p, ws, workers)
		// Every row took part in the build, so ws.leaf already holds the
		// new tree's leaf value for each row (the bin-comparison partition
		// is exactly the threshold traversal — see growTree).
		for i := range pred {
			pred[i] += ws.leaf[i]
		}
	}
	return m, nil
}

// rankGradients accumulates pairwise logistic-rank gradients: for each item
// i and rankPairs random partners j with y[i] != y[j], the preferred item is
// pushed up and the other down with LambdaRank's sigmoid weighting. A small
// hessian floor keeps leaf weights bounded for items whose sampled pairs
// all tied.
func rankGradients(pred, y, grad, hess []float64, rng *rand.Rand) {
	n := len(y)
	for i := range grad {
		grad[i] = 0
		hess[i] = 1e-3
	}
	if n < 2 {
		return
	}
	for i := 0; i < n; i++ {
		for k := 0; k < rankPairs; k++ {
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			//lint:ignore floateq stored targets; a pairwise ranking objective has no gradient on exactly tied labels
			if y[i] == y[j] {
				continue
			}
			hi, lo := i, j
			if y[j] > y[i] {
				hi, lo = j, i
			}
			// P(hi ranked above lo) under the current scores.
			pHi := 1 / (1 + math.Exp(pred[lo]-pred[hi]))
			g := pHi - 1 // gradient of -log sigmoid(s_hi - s_lo) wrt s_hi
			h := pHi * (1 - pHi)
			if h < 1e-6 {
				h = 1e-6
			}
			grad[hi] += g
			grad[lo] -= g
			hess[hi] += h
			hess[lo] += h
		}
	}
}
