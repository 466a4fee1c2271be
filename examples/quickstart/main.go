// Quickstart: tune one convolution layer on the simulated GTX 1080 Ti and
// compare the paper's advanced active-learning framework (BTED + BAO)
// against the AutoTVM baseline on an identical measurement budget.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

func main() {
	// A ResNet-style 3x3 convolution: 64 -> 128 channels at 28x28.
	workload := tensor.Conv2D(1, 64, 28, 28, 128, 3, 1, 1)
	task, err := tuner.NewTask("quickstart.conv", workload)
	if err != nil {
		panic(err)
	}
	fmt.Printf("workload: %s\n", workload.Key())
	fmt.Printf("configuration space: %d points across %d knobs\n\n",
		task.Space.Size(), task.Space.NumKnobs())

	opts := tuner.Options{
		Budget:    256, // measurements allowed
		EarlyStop: -1,  // run the full budget for a clean comparison
		PlanSize:  32,  // initialization / batch size
		Seed:      42,
	}

	ctx := context.Background()
	for _, tn := range []tuner.Tuner{tuner.NewAutoTVM(), tuner.NewBTEDBAO()} {
		// Both tuners measure through the named-device backend registry;
		// seeded measurement makes their runs reproducible and independent.
		b, err := backend.New("gtx1080ti", 7)
		if err != nil {
			panic(err)
		}
		res, err := tuner.Tune(ctx, tn, task, b, opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-9s best %8.1f GFLOPS in %d measurements\n",
			tn.Name(), res.Best.GFLOPS, res.Measurements)
		trace := res.BestTrace()
		for _, at := range []int{31, 63, 127, 255} {
			if at < len(trace) {
				fmt.Printf("           after %3d configs: %8.1f GFLOPS\n", at+1, trace[at])
			}
		}
		fmt.Printf("           best config: %s\n\n", res.Best.Config)
	}
}
