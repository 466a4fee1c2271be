package active

import (
	"math/rand"
	"testing"

	"repro/internal/hwsim"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tensor"
)

// trainerFixture builds a small observation set over the quad space.
func trainerFixture(t *testing.T, n int, seed int64) ([]Sample, *space.Space) {
	t.Helper()
	sp := quadSpace()
	rng := rand.New(rand.NewSource(seed))
	return measureInit(sp, n, rng, quadMeasure), sp
}

func TestAllTrainersProduceEvaluators(t *testing.T) {
	samples, _ := trainerFixture(t, 40, 1)
	X := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		X[i] = s.Config.Features()
		y[i] = s.GFLOPS
	}
	trainers := map[string]EvalTrainer{
		"xgb": NewXGBTrainer(),
		"gp":  NewGPTrainer(),
		"rf":  NewRFTrainer(),
	}
	for name, tr := range trainers {
		ev, err := tr.Train(X, y, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := ev.Predict(X[0])
		if p != p { // NaN check
			t.Fatalf("%s: NaN prediction", name)
		}
	}
}

func TestBAOWithEachTrainer(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   EvalTrainer
	}{
		{"xgb", NewXGBTrainer()},
		{"gp", NewGPTrainer()},
		{"rf", NewRFTrainer()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := quadSpace()
			src := rng.New(11)
			init := measureInit(sp, 16, src.Rand(), quadMeasure)
			samples := runBAO(sp, tc.tr, init, quadMeasure, BAOParams{Gamma: 2}, 60, src)
			best, ok := Best(samples)
			if !ok {
				t.Fatal("no valid sample")
			}
			initBest, _ := Best(init)
			if best.GFLOPS < initBest.GFLOPS {
				t.Fatalf("%s-driven BAO regressed: %v -> %v", tc.name, initBest.GFLOPS, best.GFLOPS)
			}
		})
	}
}

func TestBAOStrictlyLocalStalls(t *testing.T) {
	// Regression test for the documented searching-scope decision: on a
	// realistic schedule space the strictly-local reading of Algorithm 4
	// pins to the first index-space local maximum (its radius-tau*R ball
	// contains no better point and is far too large to exhaust), while the
	// hybrid scope keeps improving through the bootstrap-guided global
	// fallback. We run both on the same simulated conv2d task and compare
	// late-phase progress.
	w := tensor.Conv2D(1, 64, 56, 56, 128, 1, 1, 0)
	sp, err := space.ForWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	run := func(fallback int) (atQuarter, final float64) {
		sim := hwsim.NewSimulator(hwsim.GTX1080Ti(), 5)
		measure := func(c space.Config) (float64, bool) {
			m := sim.Measure(w, c)
			return m.GFLOPS, m.Valid
		}
		src := rng.New(7)
		var init []Sample
		for _, c := range sp.RandomSample(32, src.Rand()) {
			g, ok := measure(c)
			init = append(init, Sample{Config: c, GFLOPS: g, Valid: ok})
		}
		p := BAOParams{Gamma: 2, GlobalFallbackAfter: fallback}
		samples := runBAO(sp, NewXGBTrainer(), init, measure, p, 240, src)
		trace := BestTrace(samples)
		return trace[len(trace)/4], trace[len(trace)-1]
	}
	_, localFinal := run(-1)
	hybridQuarter, hybridFinal := run(12)
	if hybridFinal < localFinal {
		t.Fatalf("hybrid final %.1f below strictly-local final %.1f", hybridFinal, localFinal)
	}
	if hybridFinal <= hybridQuarter {
		t.Fatalf("hybrid made no late progress: %.1f -> %.1f", hybridQuarter, hybridFinal)
	}
}
