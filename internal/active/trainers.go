package active

import (
	"repro/internal/gp"
	"repro/internal/rf"
)

// GPTrainer adapts Gaussian-process regression as the evaluation function.
// Exact inference is O(n³); gp.Train caps the training-set size, which the
// bootstrap resampling of Algorithm 3 tolerates naturally.
type GPTrainer struct{}

// NewGPTrainer returns the GP trainer.
func NewGPTrainer() GPTrainer { return GPTrainer{} }

// Train implements EvalTrainer.
func (GPTrainer) Train(X [][]float64, y []float64, seed int64) (Evaluator, error) {
	return gp.Train(X, y, gp.Params{Seed: seed})
}

// RFTrainer adapts random-forest regression as the evaluation function.
// Note the composition with Algorithm 3: BAO bootstraps the observation set
// and the forest bootstraps again internally — bagging over bagging, which
// is exactly the variance-reduction stack the paper motivates.
type RFTrainer struct{}

// NewRFTrainer returns the random-forest trainer (24 trees of depth at
// most 8, sized for the per-step BAO loop).
func NewRFTrainer() RFTrainer { return RFTrainer{} }

// Train implements EvalTrainer.
func (RFTrainer) Train(X [][]float64, y []float64, seed int64) (Evaluator, error) {
	return rf.Train(X, y, seed)
}
