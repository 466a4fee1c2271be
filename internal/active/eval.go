package active

import (
	"repro/internal/xgb"
)

// Evaluator scores a feature vector; higher predictions mean better
// expected performance. It is the paper's "evaluation function" f_gamma.
type Evaluator interface {
	Predict(x []float64) float64
}

// EvalTrainer builds an Evaluator from observations. The framework is
// explicitly independent of the concrete evaluation-function form
// (Section III-B), so trainers are pluggable.
type EvalTrainer interface {
	Train(X [][]float64, y []float64, seed int64) (Evaluator, error)
}

// XGBTrainer adapts the gradient-boosted-tree regressor as the evaluation
// function, matching AutoTVM's XGBoost cost model. Its ensemble is sized
// for the BAO loop, which retrains Gamma models on every optimization step:
// fewer, shallower trees over quantized features.
type XGBTrainer struct{}

// NewXGBTrainer returns the XGBoost trainer.
func NewXGBTrainer() XGBTrainer { return XGBTrainer{} }

// Train implements EvalTrainer.
func (XGBTrainer) Train(X [][]float64, y []float64, seed int64) (Evaluator, error) {
	return xgb.Train(X, y, xgb.Params{NumRounds: 20, MaxDepth: 4, MaxBins: 16, Seed: seed})
}

// MeanEvaluator averages a set of evaluators; summation and averaging give
// the same argmax, and the average keeps magnitudes comparable across Gamma
// settings in the ablations.
type MeanEvaluator []Evaluator

// Predict implements Evaluator.
func (m MeanEvaluator) Predict(x []float64) float64 {
	if len(m) == 0 {
		return 0
	}
	s := 0.0
	for _, e := range m {
		s += e.Predict(x)
	}
	return s / float64(len(m))
}
