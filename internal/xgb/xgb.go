// Package xgb implements gradient-boosted regression trees in the style of
// XGBoost (Chen & Guestrin 2016): second-order boosting with L2-regularized
// leaf weights, minimum-gain pruning, shrinkage, and row/column
// subsampling. Split finding uses histogram binning (XGBoost's `hist`
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
	"sort"

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

// Params configures training.
type Params struct {
	NumRounds      int       // number of boosting rounds (trees)
	MaxDepth       int       // maximum tree depth
	Eta            float64   // shrinkage (learning rate)
	Lambda         float64   // L2 regularization of leaf weights
	Gamma          float64   // minimum gain to make a split
	MinChildWeight float64   // minimum hessian sum per child
	Subsample      float64   // row subsampling per tree, in (0, 1]
	ColSample      float64   // feature subsampling per tree, in (0, 1]
	MaxBins        int       // histogram bins per feature
	Objective      Objective // loss (default squared error)
	// RankPairs is the number of comparison partners sampled per item and
	// round under ObjPairwiseRank (default 4).
	RankPairs int
	Seed      int64 // RNG seed for subsampling and pair sampling
	// Workers caps the goroutines used for binning, split search and
	// per-round prediction updates; <= 0 means par.Workers(). The trained
	// model is bit-identical for every value: all RNG draws stay on the
	// calling goroutine, and every parallel stage either works on disjoint
	// per-row/per-feature state or folds serially in a fixed order.
	Workers int
}

// DefaultParams mirrors the compact configuration AutoTVM uses for its
// cost model: shallow-ish trees, mild regularization.
func DefaultParams() Params {
	return Params{
		NumRounds:      30,
		MaxDepth:       5,
		Eta:            0.25,
		Lambda:         1.0,
		Gamma:          0.0,
		MinChildWeight: 1.0,
		Subsample:      1.0,
		ColSample:      1.0,
		MaxBins:        32,
		Seed:           0,
	}
}

func (p Params) validate() error {
	if p.NumRounds <= 0 {
		return errors.New("xgb: NumRounds must be positive")
	}
	if p.MaxDepth <= 0 {
		return errors.New("xgb: MaxDepth must be positive")
	}
	if p.Eta <= 0 || p.Eta > 1 {
		return errors.New("xgb: Eta must be in (0, 1]")
	}
	if p.Lambda < 0 || p.Gamma < 0 || p.MinChildWeight < 0 {
		return errors.New("xgb: regularization parameters must be non-negative")
	}
	if p.Subsample <= 0 || p.Subsample > 1 || p.ColSample <= 0 || p.ColSample > 1 {
		return errors.New("xgb: Subsample and ColSample must be in (0, 1]")
	}
	if p.MaxBins < 2 || p.MaxBins > 256 {
		return errors.New("xgb: MaxBins must be in [2, 256]")
	}
	if p.Objective != ObjSquaredError && p.Objective != ObjPairwiseRank {
		return errors.New("xgb: unknown objective")
	}
	if p.RankPairs < 0 {
		return errors.New("xgb: RankPairs must be non-negative")
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
	predBlocks := (n + xgbRowBlock - 1) / xgbRowBlock
	predWorkers := workers
	if n < xgbParallelMinWork {
		predWorkers = 1
	}

	for round := 0; round < p.NumRounds; round++ {
		switch p.Objective {
		case ObjPairwiseRank:
			rankGradients(pred, y, grad, hess, p.RankPairs, rng)
		default:
			for i := range grad {
				grad[i] = pred[i] - y[i] // d/dp 0.5*(p-y)^2
				hess[i] = 1
			}
		}
		rows := sampleRows(n, p.Subsample, rng)
		cols := sampleCols(nfeat, p.ColSample, rng)
		growTree(m, b, grad, hess, rows, cols, p, ws, workers)
		if p.Subsample >= 1 {
			// Every row took part in the build, so ws.leaf already holds
			// the new tree's leaf value for each row (the bin-comparison
			// partition is exactly the threshold traversal — see growTree).
			for i := range pred {
				pred[i] += ws.leaf[i]
			}
		} else {
			// Per-row independent walks of the new tree over fixed blocks:
			// bit-identical for any worker count.
			t := m.NumTrees() - 1
			par.For(predBlocks, predWorkers, func(bk int) {
				lo, hi := bk*xgbRowBlock, (bk+1)*xgbRowBlock
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					pred[i] += m.predictTree(t, X[i])
				}
			})
		}
	}
	return m, nil
}

// rankGradients accumulates pairwise logistic-rank gradients: for each item
// i and `pairs` random partners j with y[i] != y[j], the preferred item is
// pushed up and the other down with LambdaRank's sigmoid weighting. A small
// hessian floor keeps leaf weights bounded for items whose sampled pairs
// all tied.
func rankGradients(pred, y, grad, hess []float64, pairs int, rng *rand.Rand) {
	n := len(y)
	if pairs <= 0 {
		pairs = 4
	}
	for i := range grad {
		grad[i] = 0
		hess[i] = 1e-3
	}
	if n < 2 {
		return
	}
	for i := 0; i < n; i++ {
		for k := 0; k < pairs; k++ {
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

func sampleRows(n int, frac float64, rng *rand.Rand) []int32 {
	if frac >= 1 {
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(i)
		}
		return rows
	}
	k := int(math.Ceil(frac * float64(n)))
	perm := rng.Perm(n)
	rows := make([]int32, k)
	for i := 0; i < k; i++ {
		rows[i] = int32(perm[i])
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	return rows
}

func sampleCols(nfeat int, frac float64, rng *rand.Rand) []int {
	if frac >= 1 {
		cols := make([]int, nfeat)
		for i := range cols {
			cols[i] = i
		}
		return cols
	}
	k := int(math.Ceil(frac * float64(nfeat)))
	perm := rng.Perm(nfeat)
	cols := perm[:k]
	sort.Ints(cols)
	return cols
}
