package tuner

import (
	"math/rand"
	"testing"

	"repro/internal/sa"
	"repro/internal/tensor"
)

// BenchmarkSACandidateSelection measures one candidate-selection round as
// the tuner runs it: index the retrained surrogate into the session's
// pooled objective, run the delta-encoded SA argmax (96 walkers x 120
// iters), drain the top-k.
func BenchmarkSACandidateSelection(b *testing.B) {
	task, err := NewTask("bench.conv", tensor.Conv2D(1, 32, 28, 28, 64, 3, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	model := sascoreModel(b, task.Space, 3)
	var obj *saObjective
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj = resetSAObjective(obj, model, task.Space)
		sa.FindMaxima(task.Space, obj, 24, nil, rand.New(rand.NewSource(int64(i))))
	}
}
