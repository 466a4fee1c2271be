package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/active"
	"repro/internal/linalg"
	"repro/internal/tuner"
)

// AblationRow is one setting of one ablation study: the mean best GFLOPS
// (relative to the study's default setting, in percent) and the mean number
// of sampled configurations.
type AblationRow struct {
	Setting  string
	GFLOPS   float64
	RelPct   float64 // 100 * GFLOPS / GFLOPS(default row)
	Configs  float64
	TasksRun int
}

// AblationResult is one study over a subset of MobileNet-v1 tasks.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// ablationTasks returns a representative subset of MobileNet-v1 tasks
// (first conv, an early depthwise, a mid pointwise, a late pointwise).
func ablationTasks(n int) ([]*tuner.Task, error) {
	all, err := mobilenetTasks()
	if err != nil {
		return nil, err
	}
	pick := []int{0, 1, 8, 16}
	var out []*tuner.Task
	for _, i := range pick {
		if i < len(all) {
			out = append(out, all[i])
		}
		if len(out) == n {
			break
		}
	}
	return out, nil
}

// runAblation runs one study's arms as a paired grid over the ablation
// task subset and normalizes the rows against the first (default) arm.
func runAblation(ctx context.Context, cfg Config, name string, arms []Arm) (AblationResult, error) {
	tasks, err := ablationTasks(3)
	if err != nil {
		return AblationResult{}, err
	}
	res, err := RunGrid(ctx, cfg.grid("ablation "+name, arms, tasks, cfg.EarlyStop))
	if err != nil {
		return AblationResult{}, err
	}
	rows := make([]AblationRow, len(arms))
	for ai, arm := range arms {
		var gs, cs []float64
		for ti := range tasks {
			for _, r := range res.Trials(ai, ti) {
				cs = append(cs, float64(r.Measurements))
				if r.Found {
					gs = append(gs, r.Best.GFLOPS/1000) // TFLOPS-ish scale per task
				}
			}
		}
		rows[ai] = AblationRow{Setting: arm.Name, GFLOPS: meanOf(gs), Configs: meanOf(cs), TasksRun: len(tasks)}
	}
	base := rows[0].GFLOPS
	for i := range rows {
		if base > 0 {
			rows[i].RelPct = 100 * rows[i].GFLOPS / base
		}
	}
	return AblationResult{Name: name, Rows: rows}, nil
}

// AblationGamma sweeps the number of bootstrap evaluation functions
// (paper setting Γ=2 first).
func AblationGamma(ctx context.Context, cfg Config) (AblationResult, error) {
	var arms []Arm
	for _, gamma := range []int{2, 1, 4, 8} {
		tn := tuner.NewBTEDBAO()
		tn.BAO.Gamma = gamma
		arms = append(arms, Arm{fmt.Sprintf("Gamma=%d", gamma), tn})
	}
	return runAblation(ctx, cfg, "bootstrap-resamples", arms)
}

// AblationTau sweeps the adaptive radius growth factor (paper τ=1.5 first;
// τ→1 disables growth).
func AblationTau(ctx context.Context, cfg Config) (AblationResult, error) {
	var arms []Arm
	for _, tau := range []float64{1.5, 1.000001, 2.0, 3.0} {
		tn := tuner.NewBTEDBAO()
		tn.BAO.Tau = tau
		arms = append(arms, Arm{fmt.Sprintf("tau=%.2f", tau), tn})
	}
	return runAblation(ctx, cfg, "adaptive-growth", arms)
}

// AblationRadius sweeps the base neighborhood radius (paper R=3 first).
func AblationRadius(ctx context.Context, cfg Config) (AblationResult, error) {
	var arms []Arm
	for _, r := range []float64{3, 1, 5} {
		tn := tuner.NewBTEDBAO()
		tn.BAO.R = r
		arms = append(arms, Arm{fmt.Sprintf("R=%.0f", r), tn})
	}
	return runAblation(ctx, cfg, "neighborhood-radius", arms)
}

// AblationInit compares BTED initialization against random initialization
// with the identical BAO iterative stage (isolating BTED's contribution).
func AblationInit(ctx context.Context, cfg Config) (AblationResult, error) {
	rnd := tuner.NewBTEDBAO()
	rnd.BTED.B = 1
	rnd.BTED.M = cfg.PlanSize // degenerate BTED == random sample
	return runAblation(ctx, cfg, "initialization", []Arm{
		{"BTED-init", tuner.NewBTEDBAO()},
		{"random-init", rnd},
	})
}

// AblationCeil compares the plain relative improvement of Eq. (1) against
// the paper-literal ceiling (see DESIGN.md on the suspected typo).
func AblationCeil(ctx context.Context, cfg Config) (AblationResult, error) {
	ceil := tuner.NewBTEDBAO()
	ceil.BAO.LiteralCeil = true
	return runAblation(ctx, cfg, "eq1-ceiling", []Arm{
		{"plain-Eq1", tuner.NewBTEDBAO()},
		{"literal-ceil", ceil},
	})
}

// AblationScope compares the hybrid searching scope (local neighborhood
// with bootstrap-guided global fallback on stall; see DESIGN.md) against
// the strictly-local reading of Algorithm 4.
func AblationScope(ctx context.Context, cfg Config) (AblationResult, error) {
	local := tuner.NewBTEDBAO()
	local.BAO.GlobalFallbackAfter = -1
	return runAblation(ctx, cfg, "searching-scope", []Arm{
		{"hybrid-scope", tuner.NewBTEDBAO()},
		{"strictly-local", local},
	})
}

// AblationEvalFunc swaps the evaluation function under BAO — gradient
// boosting (default), Gaussian process, random forest — exercising the
// paper's claim that the framework is independent of the evaluation
// function's concrete form.
func AblationEvalFunc(ctx context.Context, cfg Config) (AblationResult, error) {
	var arms []Arm
	for _, ev := range []struct {
		name string
		tr   active.EvalTrainer
	}{
		{"xgboost", active.NewXGBTrainer()},
		{"gaussian-process", active.NewGPTrainer()},
		{"random-forest", active.NewRFTrainer()},
	} {
		tn := tuner.NewBTEDBAO()
		tn.Trainer = ev.tr
		arms = append(arms, Arm{ev.name, tn})
	}
	return runAblation(ctx, cfg, "evaluation-function", arms)
}

// AblationObjective compares the AutoTVM arm's cost-model loss: squared
// error (our calibrated default) versus the pairwise rank loss AutoTVM
// ships with.
func AblationObjective(ctx context.Context, cfg Config) (AblationResult, error) {
	rank := tuner.NewAutoTVM()
	rank.RankObjective = true
	return runAblation(ctx, cfg, "cost-model-objective", []Arm{
		{"squared-error", tuner.NewAutoTVM()},
		{"pairwise-rank", rank},
	})
}

// AblationKernel compares the default RBF TED kernel against the
// paper-literal raw Euclidean distance matrix.
func AblationKernel(ctx context.Context, cfg Config) (AblationResult, error) {
	lit := tuner.NewBTEDBAO()
	lit.BTED.Kernel = linalg.DistanceKernel{}
	lit.BTED.View = active.ViewKnobIndices
	return runAblation(ctx, cfg, "ted-kernel", []Arm{
		{"rbf-kernel", tuner.NewBTEDBAO()},
		{"euclidean-literal", lit},
	})
}

// AllAblations runs every study.
func AllAblations(ctx context.Context, cfg Config) ([]AblationResult, error) {
	studies := []func(context.Context, Config) (AblationResult, error){
		AblationGamma, AblationTau, AblationRadius, AblationInit,
		AblationCeil, AblationKernel, AblationScope, AblationEvalFunc, AblationObjective,
	}
	var out []AblationResult
	for _, f := range studies {
		r, err := f(ctx, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Print renders one ablation table.
func (r AblationResult) Print(w io.Writer) {
	fprintf(w, "Ablation: %s\n", r.Name)
	fprintf(w, "%-20s %12s %10s %10s\n", "setting", "TFLOPS(avg)", "rel(%)", "#configs")
	for _, row := range r.Rows {
		fprintf(w, "%-20s %12.3f %10.2f %10.0f\n", row.Setting, row.GFLOPS, row.RelPct, row.Configs)
	}
}
