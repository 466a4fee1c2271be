// Cross-device retuning: tune the same convolution for four simulated
// devices and show that (a) the winning schedules differ per device and
// (b) a schedule carried from one device to another loses much of its
// performance — the motivation for automatic per-platform tuning that the
// paper's discussion section emphasizes.
//
// Run with:
//
//	go run ./examples/crossdevice
package main

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/hwsim"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

func main() {
	w := tensor.Conv2D(1, 128, 28, 28, 128, 3, 1, 1)
	task, err := tuner.NewTask("xdev.conv", w)
	if err != nil {
		panic(err)
	}
	deviceNames := []string{"gtx1080ti", "v100", "gtx1060", "jetsontx2"}

	fmt.Printf("workload %s\n\n", w.Key())
	best := make(map[string]tuner.Result, len(deviceNames))
	for i, name := range deviceNames {
		b, err := backend.New(name, int64(10+i))
		if err != nil {
			panic(err)
		}
		res, err := tuner.Tune(context.Background(), tuner.NewBTEDBAO(), task, b, tuner.Options{
			Budget: 256, EarlyStop: 128, PlanSize: 32, Seed: int64(100 + i),
		})
		if err != nil {
			panic(err)
		}
		best[name] = res
		fmt.Printf("%-10s best %8.1f GFLOPS  (%s)\n", name, res.Best.GFLOPS, res.Best.Config)
	}

	fmt.Printf("\ncross-evaluation (%% of natively tuned performance):\n%-12s", "tuned on")
	for _, run := range deviceNames {
		fmt.Printf(" %10s", run)
	}
	fmt.Println()
	for _, from := range deviceNames {
		fmt.Printf("%-12s", from)
		for _, on := range deviceNames {
			dev, _ := hwsim.DeviceByName(on)
			est := hwsim.Estimator{Dev: dev}
			e := est.Estimate(w, best[from].Best.Config)
			native := est.Estimate(w, best[on].Best.Config)
			switch {
			case !e.Valid:
				fmt.Printf(" %10s", "infeasible")
			case native.Valid && native.GFLOPS > 0:
				fmt.Printf(" %9.1f%%", 100*e.GFLOPS/native.GFLOPS)
			default:
				fmt.Printf(" %10s", "-")
			}
		}
		fmt.Println()
	}

	fmt.Println("\nlowered schedule tuned for the Jetson TX2:")
	dev, _ := hwsim.DeviceByName("jetsontx2")
	fmt.Println(hwsim.Estimator{Dev: dev}.Lower(w, best["jetsontx2"].Best.Config))
}
