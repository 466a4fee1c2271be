// Custom operator: the framework is independent of the built-in schedule
// templates — any workload with a knob space can be tuned. This example
// defines a custom space for a wide dense layer (a different split
// structure than the stock template) and a custom evaluation-function
// trainer, then tunes it with the paper's BTED + BAO through the same
// tuning path every built-in task takes (tuner.Tune on a seeded backend).
//
// Run with:
//
//	go run ./examples/customop
package main

import (
	"context"
	"fmt"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/space"
	"repro/internal/tensor"
	"repro/internal/tuner"
	"repro/internal/xgb"
)

func main() {
	// A big fully-connected layer: 1x4096 times 4096x4096.
	w := tensor.Dense(1, 4096, 4096)

	// Custom schedule space: 4-way output split plus a 2-way reduction
	// split and unroll knobs — the same knob names the simulator
	// understands, but with a hand-chosen structure.
	sp := space.New(
		space.NewSplitKnob(space.KnobTileF, w.F, 4),
		space.NewSplitKnob(space.KnobTileK, w.C, 2),
		space.NewEnumKnob(space.KnobAutoUnroll, 0, 256, 1500),
		space.NewEnumKnob(space.KnobUnrollExplicit, 0, 1),
	)
	fmt.Printf("custom space: %d configurations\n", sp.Size())
	task := &tuner.Task{Name: "custom.dense", Workload: w, Space: sp, Count: 1}

	b, err := backend.New("gtx1080ti", 3)
	if err != nil {
		panic(err)
	}

	// BAO with a custom evaluation function (heavyGBT below),
	// demonstrating the pluggable trainer interface.
	tn := &tuner.AdvancedTuner{BTED: active.DefaultBTEDParams(), Trainer: heavyGBT{}}
	// 24 BTED initialization configs (Algorithms 1 & 2), then 120 BAO
	// iterations (Algorithms 3 & 4).
	const initSize, baoSteps = 24, 120
	runningBest := 0.0
	opts := tuner.Options{
		Budget:    initSize + baoSteps,
		PlanSize:  initSize,
		EarlyStop: -1,
		Seed:      99,
		Observer: func(step int, s active.Sample) {
			if s.Valid && s.GFLOPS > runningBest {
				runningBest = s.GFLOPS
			}
			switch {
			case step == initSize:
				fmt.Printf("BTED init: %d diverse configs, best %.1f GFLOPS\n", initSize, runningBest)
			case step > initSize && (step-initSize)%40 == 0:
				fmt.Printf("  step %3d: best so far %.1f GFLOPS\n", step-initSize, runningBest)
			}
		},
	}
	res, err := tuner.Tune(context.Background(), tn, task, b, opts)
	if err != nil {
		panic(err)
	}
	initBest, _ := active.Best(res.Samples[:initSize])
	fmt.Printf("BAO final: best %.1f GFLOPS after %d measurements\n", res.Best.GFLOPS, res.Measurements)
	fmt.Printf("best config: %s\n", res.Best.Config)
	fmt.Printf("improvement over init: %.1f%%\n", 100*(res.Best.GFLOPS-initBest.GFLOPS)/initBest.GFLOPS)
}

// heavyGBT is a custom evaluation-function trainer: a heavier boosted
// ensemble than the default active.XGBTrainer (40 rounds of depth-6 trees
// over 32 bins).
type heavyGBT struct{}

// Train implements active.EvalTrainer.
func (heavyGBT) Train(X [][]float64, y []float64, seed int64) (active.Evaluator, error) {
	return xgb.Train(X, y, xgb.Params{NumRounds: 40, MaxDepth: 6, MaxBins: 32, Seed: seed})
}
