// Command repro regenerates the paper's tables and figures on the
// simulated platform.
//
// Usage:
//
//	repro -exp fig4                 # convergence curves (Fig. 4)
//	repro -exp fig5                 # per-task MobileNet comparison (Fig. 5)
//	repro -exp table1               # end-to-end latency table (Table I)
//	repro -exp ablation             # design-choice ablations
//	repro -exp all                  # everything
//
// Scale: -scale quick (default) runs in minutes with the paper's
// qualitative shape; -scale paper uses the full settings (10 trials,
// budget 1024, early stop 400, 600 latency runs) and takes on the order of
// an hour of CPU time.
//
// Table I's (model, method, trial) cells are jobs in a job store: with
// -store DIR, rerunning an interrupted study over the same directory reads
// finished cells back and resumes the interrupted ones from their last
// checkpoint, landing on an uninterrupted run's numbers exactly. Without
// -store the cells go to a temporary directory removed on exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/job"
	"repro/internal/repro"
)

func main() {
	exp := flag.String("exp", "all", "fig4 | fig5 | table1 | baselines | batch | precision | crossdev | ablation | all")
	scale := flag.String("scale", "quick", "quick | paper")
	models := flag.String("models", "", "comma-separated Table I models (default: all five)")
	trials := flag.Int("trials", 0, "override trial count")
	budget := flag.Int("budget", 0, "override per-task budget")
	seed := flag.Int64("seed", 0, "override base seed")
	taskConc := flag.Int("task-concurrency", 1, "tasks tuned concurrently by the graph scheduler in pipeline experiments")
	budgetPolicy := flag.String("budget-policy", "uniform", "scheduler budget policy: uniform | adaptive")
	storeDir := flag.String("store", "", "job store directory for Table I cells; rerunning over it skips finished cells and resumes interrupted ones (default: a temporary directory removed on exit)")
	verbose := flag.Bool("v", false, "print progress lines")
	flag.Parse()

	cfg := repro.Quick()
	if *scale == "paper" {
		cfg = repro.Paper()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *budget > 0 {
		cfg.Budget = *budget
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.TaskConcurrency = *taskConc
	cfg.BudgetPolicy = *budgetPolicy
	if *verbose {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	var modelList []string
	if *models != "" {
		modelList = strings.Split(*models, ",")
	}

	// Ctrl-C cancels the experiment context; partially-computed studies are
	// abandoned (their numbers would be misleading) and the exit is nonzero.
	// Table I cells in a -store directory stay resumable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, *exp, cfg, modelList, *storeDir); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "repro: interrupted:", err)
		} else {
			fmt.Fprintln(os.Stderr, "repro:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, exp string, cfg repro.Config, models []string, storeDir string) error {
	want := func(name string) bool { return exp == "all" || exp == name }
	ran := false

	if want("fig4") {
		ran = true
		results, err := repro.Fig4(ctx, cfg)
		if err != nil {
			return err
		}
		for _, r := range results {
			r.Chart(os.Stdout)
			fmt.Println()
			r.Print(os.Stdout, cfg.Budget/16)
			fmt.Println()
		}
	}
	if want("fig5") {
		ran = true
		res, err := repro.Fig5(ctx, cfg)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		bted, bao := res.ImprovementSummary()
		fmt.Printf("\naverage GFLOPS improvement vs AutoTVM: BTED %+.2f%%, BTED+BAO %+.2f%%\n\n", bted, bao)
	}
	if want("table1") {
		ran = true
		if storeDir == "" {
			tmp, err := os.MkdirTemp("", "repro-store-")
			if err != nil {
				return err
			}
			defer func() { _ = os.RemoveAll(tmp) }() // best-effort cleanup of a scratch store
			storeDir = tmp
		}
		store, err := job.OpenStore(storeDir)
		if err != nil {
			return err
		}
		res, err := repro.Table1(ctx, cfg, models, store)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		lat, variance := res.Headline()
		fmt.Printf("\nheadline (best row, BTED+BAO): latency %+.2f%%, variance %+.2f%%\n\n", lat, variance)
	}
	if want("batch") {
		ran = true
		res, err := repro.Batch(ctx, cfg)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		fmt.Println()
	}
	if want("precision") {
		ran = true
		res, err := repro.Precision(ctx, cfg)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		fmt.Println()
	}
	if want("baselines") {
		ran = true
		res, err := repro.Baselines(ctx, cfg)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		fmt.Println()
	}
	if want("crossdev") {
		ran = true
		res, err := repro.CrossDevice(ctx, cfg, nil)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		fmt.Printf("\nmean cross-device retention: %.1f%% (of natively-tuned performance)\n\n", res.MeanOffDiagonal())
	}
	if want("ablation") {
		ran = true
		results, err := repro.AllAblations(ctx, cfg)
		if err != nil {
			return err
		}
		for _, r := range results {
			r.Print(os.Stdout)
			fmt.Println()
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want fig4|fig5|table1|baselines|batch|precision|crossdev|ablation|all)", exp)
	}
	return nil
}
