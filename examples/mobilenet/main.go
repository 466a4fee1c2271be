// MobileNet-v1 per-task comparison: a scaled-down version of the paper's
// Fig. 5 over the first handful of the 19 conv/depthwise tuning tasks,
// printing the number of sampled configurations and the GFLOPS ratio of
// BTED and BTED+BAO relative to AutoTVM.
//
// Run with:
//
//	go run ./examples/mobilenet
package main

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/graph"
	"repro/internal/tuner"
)

func main() {
	g := graph.MobileNetV1()
	fused := graph.Fuse(g)
	fmt.Println(fused.FusionReport())
	gtasks := graph.ExtractTasks(g, graph.ConvOnly)
	fmt.Printf("%d tuning tasks extracted (paper Fig. 5: T1..T19)\n\n", len(gtasks))

	tuners := []tuner.Tuner{tuner.NewAutoTVM(), tuner.NewBTED(), tuner.NewBTEDBAO()}
	fmt.Printf("%-6s | %26s | %22s\n", "task", "sampled configurations", "GFLOPS vs AutoTVM (%)")
	fmt.Printf("%-6s | %8s %8s %8s | %6s %6s %8s\n",
		"", "autotvm", "bted", "b+bao", "atvm", "bted", "b+bao")

	const nTasks = 6 // first six tasks keep the example under a minute
	for ti, gt := range gtasks[:nTasks] {
		task, err := tuner.FromGraphTask(gt)
		if err != nil {
			panic(err)
		}
		var configs [3]int
		var gflops [3]float64
		for mi, tn := range tuners {
			b, err := backend.New("gtx1080ti", int64(1000+ti*10+mi))
			if err != nil {
				panic(err)
			}
			res, err := tuner.Tune(context.Background(), tn, task, b, tuner.Options{
				Budget:    192,
				EarlyStop: 96,
				PlanSize:  32,
				Seed:      int64(500 + ti*100 + mi),
			})
			if err != nil {
				panic(err)
			}
			configs[mi] = res.Measurements
			gflops[mi] = res.Best.GFLOPS
		}
		ratio := func(mi int) float64 {
			if gflops[0] == 0 {
				return 0
			}
			return 100 * gflops[mi] / gflops[0]
		}
		fmt.Printf("T%-5d | %8d %8d %8d | %6.1f %6.1f %8.1f\n",
			ti+1, configs[0], configs[1], configs[2], ratio(0), ratio(1), ratio(2))
	}
	fmt.Println("\n(Fig. 5 full regeneration: go run ./cmd/repro -exp fig5)")
}
