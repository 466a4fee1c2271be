package tuner

import (
	"math/rand"
	"testing"

	"repro/internal/sa"
	"repro/internal/space"
	"repro/internal/xgb"
)

// sascoreModel trains a surrogate on random configurations of the test
// task's space, exactly as the tuner would (same parameter block).
func sascoreModel(t testing.TB, sp *space.Space, seed int64) *xgb.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 160
	X := make([][]float64, 0, n)
	y := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		c := sp.Random(rng)
		X = append(X, c.Features())
		y = append(y, float64(c.Flat()%97)/97.0)
	}
	m, err := xgb.Train(X, y, xgb.Params{NumRounds: 24, MaxDepth: 5, MaxBins: 24, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// naiveObjective is the full-rescore oracle of the SA objective: every
// batch is scored with model.Predict on freshly encoded rows, ignoring the
// delta hints.
type naiveObjective struct{ model *xgb.Model }

func (n naiveObjective) InitBatch(points []space.Config) []float64 { return n.score(points) }

func (n naiveObjective) ProposeBatch(proposals []space.Config, _ []int) []float64 {
	return n.score(proposals)
}

func (naiveObjective) Commit(int) {}

func (n naiveObjective) score(batch []space.Config) []float64 {
	out := make([]float64, len(batch))
	for i, c := range batch {
		out[i] = n.model.Predict(c.Features())
	}
	return out
}

// TestSAObjectiveMatchesNaive is the end-to-end parity contract of the
// incremental path on a real tuning space: FindMaxima over newSAObjective
// must return the identical candidate list — same configs, same order — as
// FindMaxima over the naive model.Predict(c.Features()) objective.
func TestSAObjectiveMatchesNaive(t *testing.T) {
	task := testTask(t)
	for _, mseed := range []int64{11, 12} {
		model := sascoreModel(t, task.Space, mseed)
		for seed := int64(0); seed < 3; seed++ {
			want := sa.FindMaxima(task.Space, naiveObjective{model}, 16, nil, rand.New(rand.NewSource(seed)))
			obj := newSAObjective(model, task.Space)
			got := sa.FindMaxima(task.Space, obj, 16, nil, rand.New(rand.NewSource(seed)))
			if len(want) != len(got) {
				t.Fatalf("model %d seed %d: %d vs %d candidates", mseed, seed, len(want), len(got))
			}
			for i := range want {
				if want[i].Flat() != got[i].Flat() {
					t.Fatalf("model %d seed %d: candidate %d differs (%v vs %v)", mseed, seed, i, want[i].Index, got[i].Index)
				}
			}
		}
	}
}

// TestSAObjectiveRespectsExclude: visited configurations must never come
// back from the delta path.
func TestSAObjectiveRespectsExclude(t *testing.T) {
	task := testTask(t)
	model := sascoreModel(t, task.Space, 13)
	rng := rand.New(rand.NewSource(5))
	exclude := make(map[uint64]bool)
	for i := 0; i < 32; i++ {
		exclude[task.Space.Random(rng).Flat()] = true
	}
	obj := newSAObjective(model, task.Space)
	got := sa.FindMaxima(task.Space, obj, 24, exclude, rand.New(rand.NewSource(6)))
	for _, c := range got {
		if exclude[c.Flat()] {
			t.Fatalf("excluded config %v returned", c.Index)
		}
	}
}
