package gp

import (
	"math"
	"testing"
)

// TestGPTrainWorkerCountInvariance pins the parallel kernel build: every
// K[i][j] entry is the identical scalar expression, so training with 1, 4
// or 8 workers must produce bit-identical posteriors.
func TestGPTrainWorkerCountInvariance(t *testing.T) {
	X, y := benchData(250, 6, 5)
	pool, _ := benchData(64, 6, 6)
	p := Params{Workers: 1}
	ref, err := Train(X, y, p)
	if err != nil {
		t.Fatalf("Train(workers=1): %v", err)
	}
	for _, workers := range []int{4, 8} {
		p.Workers = workers
		m, err := Train(X, y, p)
		if err != nil {
			t.Fatalf("Train(workers=%d): %v", workers, err)
		}
		for _, x := range pool {
			want, got := ref.Predict(x), m.Predict(x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("workers=%d: Predict=%x, serial %x", workers, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}
