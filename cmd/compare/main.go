// Command compare races the search strategies on a single tuning task and
// prints their convergence traces side by side — the per-task view behind
// the paper's Fig. 4.
//
// The comparison is a paired study grid (repro.RunGrid) with one arm per
// tuner: every tuner runs once per seed, all tuners of a seed share it,
// and the cells run on a worker pool (-parallel) while the averaged traces
// are folded in fixed seed order afterwards, so the printed numbers are
// bit-identical for any -parallel value. All cells share one memoizing
// measurement backend: a configuration measured by one tuner at a given
// seed is never re-simulated when another tuner visits it (the BTED and
// BTED+BAO arms share their entire initialization set, for instance),
// which the final cache line quantifies.
//
// Usage:
//
//	compare -model mobilenet-v1 -task 5 -budget 512 -seeds 3
//	compare -workload conv2d:1,64,56,56,128,3,1,1 -device v100
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/backend"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/plot"
	"repro/internal/repro"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

func main() {
	model := flag.String("model", "mobilenet-v1", "model to extract the task from")
	taskIdx := flag.Int("task", 1, "1-based task index within the model")
	workload := flag.String("workload", "", "explicit workload instead of -model/-task: conv2d:N,C,H,W,F,K,S,P | depthwise:N,C,H,W,K,S,P | dense:N,CIn,COut")
	device := flag.String("device", "gtx1080ti", "simulated device: "+strings.Join(backend.Devices(), " | "))
	budget := flag.Int("budget", 512, "measurement budget")
	plan := flag.Int("plan", 32, "batch/init size")
	seeds := flag.Int("seeds", 2, "number of seeds to average")
	tuners := flag.String("tuners", "random,ga,autotvm,bted,bted+bao", "comma-separated tuner list")
	chart := flag.Bool("chart", true, "render an ASCII convergence chart")
	workers := flag.Int("workers", 0, "measurement worker pool per run (<=0: GOMAXPROCS)")
	parallel := flag.Int("parallel", 0, "(tuner, seed) runs executed concurrently (<=0: GOMAXPROCS)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, *model, *taskIdx, *workload, *device, *budget, *plan, *seeds, *tuners, *chart, *workers, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func parseWorkload(spec string) (tensor.Workload, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return tensor.Workload{}, fmt.Errorf("workload spec %q needs kind:dims", spec)
	}
	var dims []int
	for _, f := range strings.Split(parts[1], ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return tensor.Workload{}, fmt.Errorf("workload dim %q: %w", f, err)
		}
		dims = append(dims, v)
	}
	switch parts[0] {
	case "conv2d":
		if len(dims) != 8 {
			return tensor.Workload{}, fmt.Errorf("conv2d needs 8 dims N,C,H,W,F,K,S,P")
		}
		return tensor.Conv2D(dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6], dims[7]), nil
	case "depthwise":
		if len(dims) != 7 {
			return tensor.Workload{}, fmt.Errorf("depthwise needs 7 dims N,C,H,W,K,S,P")
		}
		return tensor.DepthwiseConv2D(dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6]), nil
	case "dense":
		if len(dims) != 3 {
			return tensor.Workload{}, fmt.Errorf("dense needs 3 dims N,CIn,COut")
		}
		return tensor.Dense(dims[0], dims[1], dims[2]), nil
	default:
		return tensor.Workload{}, fmt.Errorf("unknown workload kind %q", parts[0])
	}
}

func run(ctx context.Context, model string, taskIdx int, workloadSpec, deviceName string, budget, plan, seeds int, tunerList string, chart bool, workers, parallel int) error {
	var task *tuner.Task
	if workloadSpec != "" {
		w, err := parseWorkload(workloadSpec)
		if err != nil {
			return err
		}
		t, err := tuner.NewTask("custom", w)
		if err != nil {
			return err
		}
		task = t
	} else {
		g, err := graph.Model(model)
		if err != nil {
			return err
		}
		gts := graph.ExtractTasks(g, graph.ConvOnly)
		if taskIdx < 1 || taskIdx > len(gts) {
			return fmt.Errorf("task index %d out of range 1..%d", taskIdx, len(gts))
		}
		t, err := tuner.FromGraphTask(gts[taskIdx-1])
		if err != nil {
			return err
		}
		task = t
	}

	sim, err := backend.New(deviceName, 0)
	if err != nil {
		return err
	}

	fmt.Printf("task %s on %s\nworkload %s\nspace %d configurations\n\n",
		task.Name, deviceName, task.Workload.Key(), task.Space.Size())

	var arms []repro.Arm
	for _, name := range strings.Split(tunerList, ",") {
		name = strings.TrimSpace(name)
		// Validate every tuner name before spending any compute.
		tn, err := job.NewTuner(name)
		if err != nil {
			return err
		}
		arms = append(arms, repro.Arm{Name: name, Tuner: tn})
	}
	if seeds < 1 {
		seeds = 1
	}
	runSeeds := make([]int64, seeds)
	for si := range runSeeds {
		runSeeds[si] = int64(7 + si*1000)
	}
	res, err := repro.RunGrid(ctx, repro.Grid{
		Arms:     arms,
		Tasks:    []*tuner.Task{task},
		Seeds:    runSeeds,
		Options:  tuner.Options{Budget: budget, EarlyStop: -1, PlanSize: plan, Workers: workers},
		Backend:  sim,
		Parallel: parallel,
	})
	if err != nil {
		return err
	}

	var series []plot.Series
	fmt.Printf("%-10s %12s %12s %12s\n", "tuner", "best GFLOPS", "@25%", "@50%")
	for ai, arm := range arms {
		acc := repro.MeanBestTrace(res.Trials(ai, 0), budget)
		fmt.Printf("%-10s %12.1f %12.1f %12.1f\n", arm.Name, acc[budget-1], acc[budget/4-1], acc[budget/2-1])
		series = append(series, plot.Series{Name: arm.Name, Values: acc})
	}
	fmt.Printf("\nbackend cache: %d simulator calls, %d deduplicated revisits\n",
		res.Cache.Misses, res.Cache.Hits)
	if chart {
		fmt.Println()
		if err := (plot.LineChart{
			Title:  fmt.Sprintf("best-so-far GFLOPS, %s on %s", task.Name, deviceName),
			XLabel: fmt.Sprintf("#configs (1..%d)", budget),
		}).Render(os.Stdout, series); err != nil {
			return err
		}
	}
	return nil
}
