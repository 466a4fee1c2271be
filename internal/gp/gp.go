// Package gp implements Gaussian-process regression with an RBF kernel and
// exact Cholesky inference. It is an alternative evaluation function for
// the paper's framework, exercising the stated design goal that the
// advanced active-learning flow "is independent of the specific forms of
// evaluation functions": swap gp.Trainer for the XGBoost trainer and BAO
// runs unchanged.
//
// Training cost is O(n³) in the number of observations, so Train caps the
// training-set size at 400 points by uniform subsampling; for tuning-scale
// data (hundreds of points) exact inference is comfortably fast.
package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/linalg"
	"repro/internal/par"
)

// The regression's fixed settings: a unit-amplitude RBF kernel whose
// length scale is the median pairwise distance of the training inputs.
const (
	// noiseVar is the observation noise added to the kernel diagonal
	// (tuning measurements are noisy); factorization retries multiply it
	// by 10.
	noiseVar = 1e-2
	// maxPoints caps the training set by uniform subsampling.
	maxPoints = 400
)

// Params configures GP regression.
type Params struct {
	// Seed drives the subsampling.
	Seed int64
	// Workers caps the goroutines used to build the kernel matrix; <= 0
	// means par.Workers(). Every entry K[i][j] is computed independently
	// with the identical scalar expression, so the fitted model is
	// bit-identical for every value.
	Workers int
}

// Model is a fitted Gaussian process.
type Model struct {
	ls2   float64 // 2 * lengthscale^2
	x     [][]float64
	alpha []float64
	mean  float64
}

// Train fits a GP to (X, y). Inputs are referenced, not copied.
func Train(X [][]float64, y []float64, p Params) (*Model, error) {
	n := len(X)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("gp: need matching non-empty X (%d) and y (%d)", n, len(y))
	}
	if len(X[0]) == 0 {
		return nil, errors.New("gp: zero feature dimension")
	}

	if n > maxPoints {
		rng := rand.New(rand.NewSource(p.Seed))
		idx := rng.Perm(n)[:maxPoints]
		Xs := make([][]float64, maxPoints)
		ys := make([]float64, maxPoints)
		for i, j := range idx {
			Xs[i] = X[j]
			ys[i] = y[j]
		}
		X, y = Xs, ys
		n = maxPoints
	}

	ls := medianHeuristic(X)
	if ls <= 0 {
		ls = 1
	}
	ls2 := 2 * ls * ls

	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)

	workers := p.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	K := linalg.NewMatrix(n, n)
	// Row-parallel kernel build. The worker owning row i computes the pairs
	// (i, j) for j >= i and mirrors them: entry (j, i) is written only by
	// that worker (the pair's smaller index), so rows are racing-free, and
	// every entry is the identical serial scalar expression — the matrix is
	// bit-identical for any worker count.
	par.For(n, workers, func(i int) {
		for j := i; j < n; j++ {
			v := math.Exp(-linalg.Dist2(X[i], X[j]) / ls2)
			K.Set(i, j, v)
			K.Set(j, i, v)
		}
	})
	var chol *linalg.Cholesky
	var err error
	jitter := noiseVar
	for attempt := 0; attempt < 6; attempt++ {
		chol, err = linalg.NewCholesky(K, jitter)
		if err == nil {
			break
		}
		jitter *= 10
	}
	if err != nil {
		return nil, fmt.Errorf("gp: factorization failed: %w", err)
	}

	centered := make([]float64, n)
	for i, v := range y {
		centered[i] = v - mean
	}
	return &Model{
		ls2:   ls2,
		x:     X,
		alpha: chol.Solve(centered),
		mean:  mean,
	}, nil
}

// Predict returns the posterior mean at x.
func (m *Model) Predict(x []float64) float64 {
	s := m.mean
	for i, xi := range m.x {
		s += m.alpha[i] * math.Exp(-linalg.Dist2(x, xi)/m.ls2)
	}
	return s
}

// NumPoints returns the retained training-set size.
func (m *Model) NumPoints() int { return len(m.x) }

// medianHeuristic returns the median pairwise Euclidean distance over a
// bounded subsample of the inputs.
func medianHeuristic(X [][]float64) float64 {
	n := len(X)
	if n < 2 {
		return 1
	}
	cap := n
	if cap > 100 {
		cap = 100
	}
	var ds []float64
	for i := 0; i < cap; i++ {
		for j := i + 1; j < cap; j++ {
			ds = append(ds, linalg.Dist(X[i], X[j]))
		}
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}
