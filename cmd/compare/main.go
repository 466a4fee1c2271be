// Command compare races the search strategies on a single tuning task and
// prints their convergence traces side by side — the per-task view behind
// the paper's Fig. 4.
//
// Every (tuner, seed) cell of the grid is an independent run with its own
// run seed, so the grid executes on a worker pool (-parallel) while the
// averaged traces are folded in fixed seed order afterwards: the printed
// numbers are bit-identical for any -parallel value. All cells share one
// memoizing measurement backend: a configuration measured by one tuner at a
// given seed is never re-simulated when another tuner visits it (the BTED
// and BTED+BAO arms share their entire initialization set, for instance),
// which the final cache line quantifies.
//
// Usage:
//
//	compare -model mobilenet-v1 -task 5 -budget 512 -seeds 3
//	compare -workload conv2d:1,64,56,56,128,3,1,1 -device v100
package main

import (
	"context"
	"errors"
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
	"repro/internal/par"
	"repro/internal/plot"
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

	// One memoizing backend serves the whole grid: seeded measurement is a
	// pure function of (workload, config, noise seed), so revisits across
	// tuners and rounds hit the cache instead of the simulator.
	sim, err := backend.New(deviceName, 0)
	if err != nil {
		return err
	}
	sc := backend.NewSharedCache(0)
	cache := backend.WithShared(sim, sc)

	fmt.Printf("task %s on %s\nworkload %s\nspace %d configurations\n\n",
		task.Name, deviceName, task.Workload.Key(), task.Space.Size())

	var names []string
	for _, name := range strings.Split(tunerList, ",") {
		name = strings.TrimSpace(name)
		// Validate every tuner name before spending any compute.
		if _, err := job.NewTuner(name); err != nil {
			return err
		}
		names = append(names, name)
	}
	if seeds < 1 {
		seeds = 1
	}
	if parallel <= 0 {
		parallel = par.Workers()
	}

	// Run the whole (tuner, seed) grid on the pool; each cell is fully
	// independent (own tuner instance, own run seed). The pool stops
	// dispatching cells once ctx is cancelled.
	traces := make([][][]float64, len(names))
	for ti := range traces {
		traces[ti] = make([][]float64, seeds)
	}
	cellErrs := make([]error, len(names)*seeds)
	par.ForContext(ctx, len(names)*seeds, parallel, func(k int) {
		ti, si := k/seeds, k%seeds
		tn, err := job.NewTuner(names[ti])
		if err != nil {
			return // validated above; unreachable
		}
		res, err := tuner.Tune(ctx, tn, task, cache, tuner.Options{
			Budget: budget, EarlyStop: -1, PlanSize: plan, Seed: int64(7 + si*1000),
			Workers: workers,
		})
		// An all-invalid run still has a (flat-zero) trace worth printing;
		// everything else, including cancellation, aborts the comparison.
		if err != nil && !errors.Is(err, tuner.ErrNoValidConfig) {
			cellErrs[k] = err
			return
		}
		traces[ti][si] = res.BestTrace()
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, cerr := range cellErrs {
		if cerr != nil {
			return cerr
		}
	}

	// Fold in fixed seed order so the averages are independent of pool
	// scheduling.
	var series []plot.Series
	fmt.Printf("%-10s %12s %12s %12s\n", "tuner", "best GFLOPS", "@25%", "@50%")
	for ti, name := range names {
		acc := make([]float64, budget)
		for s := 0; s < seeds; s++ {
			trace := traces[ti][s]
			last := 0.0
			for i := 0; i < budget; i++ {
				if i < len(trace) {
					last = trace[i]
				}
				acc[i] += last
			}
		}
		for i := range acc {
			acc[i] /= float64(seeds)
		}
		fmt.Printf("%-10s %12.1f %12.1f %12.1f\n", name, acc[budget-1], acc[budget/4-1], acc[budget/2-1])
		series = append(series, plot.Series{Name: name, Values: acc})
	}
	st := sc.Stats()
	fmt.Printf("\nbackend cache: %d simulator calls, %d deduplicated revisits\n",
		st.Misses, st.Hits)
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
