// Package rf implements random-forest regression (Breiman 2001): bagged
// CART trees over bootstrap resamples with per-split feature subsampling.
// It is a second alternative evaluation function for the paper's framework
// (after the XGBoost-style booster and the Gaussian process), and it is a
// natural fit for BAO: the paper motivates BAO with exactly the
// bagging/variance-reduction argument that random forests embody.
package rf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// The forest's fixed settings, sized for the per-step BAO loop.
const (
	numTrees = 24 // ensemble size
	maxDepth = 8  // tree depth cap
	minLeaf  = 2  // minimum samples per leaf
	// featureFrac is the fraction of features tried per split.
	featureFrac float64 = 1.0 / 3
)

type node struct {
	feature   int // -1 for leaves
	threshold float64
	left      int32
	right     int32
	value     float64
}

type cart struct{ nodes []node }

func (t *cart) predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Model is a trained forest.
type Model struct {
	trees []cart
	nfeat int
}

// NumTrees returns the ensemble size.
func (m *Model) NumTrees() int { return len(m.trees) }

// Predict returns the ensemble-mean prediction at x.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != m.nfeat {
		//lint:ignore panicpath model invariant: feature-width mismatch means the caller mixed models, not a runtime condition
		panic(fmt.Sprintf("rf: predict with %d features, model trained on %d", len(x), m.nfeat))
	}
	s := 0.0
	for i := range m.trees {
		s += m.trees[i].predict(x)
	}
	return s / float64(len(m.trees))
}

// Train fits a random forest to (X, y); seed drives the bootstrap
// resamples and the per-split feature draws.
func Train(X [][]float64, y []float64, seed int64) (*Model, error) {
	n := len(X)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("rf: need matching non-empty X (%d) and y (%d)", n, len(y))
	}
	nfeat := len(X[0])
	if nfeat == 0 {
		return nil, errors.New("rf: zero feature dimension")
	}
	for i, row := range X {
		if len(row) != nfeat {
			return nil, fmt.Errorf("rf: row %d has %d features, want %d", i, len(row), nfeat)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	m := &Model{nfeat: nfeat}
	mtry := int(math.Ceil(featureFrac * float64(nfeat)))
	for t := 0; t < numTrees; t++ {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = rng.Intn(n)
		}
		m.trees = append(m.trees, growCART(X, y, rows, mtry, rng))
	}
	return m, nil
}

// growCART builds one tree on a bootstrap sample with variance-reduction
// splits over mtry random features.
func growCART(X [][]float64, y []float64, rows []int, mtry int, rng *rand.Rand) cart {
	t := cart{}
	nfeat := len(X[0])
	var build func(rows []int, depth int) int32
	build = func(rows []int, depth int) int32 {
		mean := 0.0
		for _, r := range rows {
			mean += y[r]
		}
		mean /= float64(len(rows))
		id := int32(len(t.nodes))
		t.nodes = append(t.nodes, node{feature: -1, value: mean})
		if depth >= maxDepth || len(rows) < 2*minLeaf {
			return id
		}

		// Parent sum of squared deviations.
		parentSS := 0.0
		for _, r := range rows {
			d := y[r] - mean
			parentSS += d * d
		}
		if parentSS == 0 {
			return id
		}

		bestGain := 0.0
		bestFeat := -1
		bestThresh := 0.0
		feats := rng.Perm(nfeat)[:mtry]
		vals := make([]float64, len(rows))
		order := make([]int, len(rows))
		for _, f := range feats {
			for i, r := range rows {
				vals[i] = X[r][f]
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
			// Prefix scan of sums to evaluate every split position.
			var sumL, nL float64
			sumT := 0.0
			for _, r := range rows {
				sumT += y[r]
			}
			nT := float64(len(rows))
			for i := 0; i < len(rows)-1; i++ {
				r := rows[order[i]]
				sumL += y[r]
				nL++
				//lint:ignore floateq comparing stored feature values for ties; a split threshold between bitwise-equal values is meaningless
				if vals[order[i]] == vals[order[i+1]] {
					continue // no valid threshold between equal values
				}
				nR := nT - nL
				if nL < minLeaf || nR < minLeaf {
					continue
				}
				sumR := sumT - sumL
				// Variance reduction = sumL²/nL + sumR²/nR - sumT²/nT.
				gain := sumL*sumL/nL + sumR*sumR/nR - sumT*sumT/nT
				if gain > bestGain {
					bestGain = gain
					bestFeat = f
					bestThresh = (vals[order[i]] + vals[order[i+1]]) / 2
				}
			}
		}
		if bestFeat < 0 {
			return id
		}
		var left, right []int
		for _, r := range rows {
			if X[r][bestFeat] <= bestThresh {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			return id
		}
		l := build(left, depth+1)
		rr := build(right, depth+1)
		t.nodes[id] = node{feature: bestFeat, threshold: bestThresh, left: l, right: rr}
		return id
	}
	all := make([]int, len(rows))
	copy(all, rows)
	build(all, 0)
	return t
}
