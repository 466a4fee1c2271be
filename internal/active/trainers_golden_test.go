package active

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hwsim"
	"repro/internal/space"
	"repro/internal/tensor"
)

// Golden FNV-1a hashes of each production evaluation function's predictions
// (trainer from its constructor, training seed 7) over the rows of
// goldenTrainRows: n rows for training, every row predicted. The 480-row
// case takes the GP past its 400-point cap, so its subsampling is pinned
// too. Any change to a trainer's constants, its RNG draws or its arithmetic
// moves these.
var goldenTrainerHashes = []struct {
	name string
	tr   EvalTrainer
	n    int
	want uint64
}{
	{"xgb/64", NewXGBTrainer(), 64, 0x899d29c5c790690b},
	{"xgb/480", NewXGBTrainer(), 480, 0x679aea826fe3c3d4},
	{"gp/64", NewGPTrainer(), 64, 0xd55c6cceed2fd3f3},
	{"gp/480", NewGPTrainer(), 480, 0xcdfe0b9066454d18},
	{"rf/64", NewRFTrainer(), 64, 0xc42ea91854acca05},
	{"rf/480", NewRFTrainer(), 480, 0x7358057951fdade8},
}

// goldenTrainRows returns 512 random configurations of a conv2d schedule
// space as feature rows, with their simulated throughput (noise seed =
// row; 0 when invalid) as targets.
func goldenTrainRows(t *testing.T) ([][]float64, []float64) {
	t.Helper()
	w := tensor.Conv2D(1, 64, 56, 56, 128, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	sim := hwsim.NewSimulator(hwsim.GTX1080Ti(), 5)
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []float64
	for i, c := range sp.RandomSample(512, rng) {
		m := sim.MeasureSeeded(w, c, int64(i))
		X = append(X, c.Features())
		if m.Valid {
			y = append(y, m.GFLOPS)
		} else {
			y = append(y, 0)
		}
	}
	return X, y
}

func predictionHash(ev Evaluator, X [][]float64) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	for _, x := range X {
		v := math.Float64bits(ev.Predict(x))
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// TestGoldenTrainerPredictions pins the predictions of the three
// evaluation functions the eval-function ablation runs.
func TestGoldenTrainerPredictions(t *testing.T) {
	X, y := goldenTrainRows(t)
	for _, tc := range goldenTrainerHashes {
		ev, err := tc.tr.Train(X[:tc.n], y[:tc.n], 7)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := predictionHash(ev, X); got != tc.want {
			t.Errorf("%s: prediction hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
