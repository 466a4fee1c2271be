package repro

import (
	"context"
	"io"

	"repro/internal/tuner"
)

// BaselineRow is one tuner's aggregate over the baseline-comparison tasks.
type BaselineRow struct {
	Tuner   string
	GFLOPS  float64 // mean best TFLOPS-scaled GFLOPS across tasks/trials
	RelPct  float64 // relative to the random baseline
	Configs float64 // mean sampled configurations
}

// BaselinesResult is the extension study comparing every implemented search
// strategy (the paper's three arms plus random, grid, GA and the
// CHAMELEON-style adaptive sampler) on a MobileNet-v1 task subset.
type BaselinesResult struct {
	Rows []BaselineRow
}

// Baselines runs the all-tuners comparison: the ablation grid with one arm
// per tuner, anchored on the random baseline.
func Baselines(ctx context.Context, cfg Config) (*BaselinesResult, error) {
	ab, err := runAblation(ctx, cfg, "baselines", []Arm{
		{"random", tuner.RandomTuner{}},
		{"grid", tuner.GridTuner{}},
		{"ga", tuner.GATuner{}},
		{"chameleon", tuner.NewChameleon()},
		{"autotvm", tuner.NewAutoTVM()},
		{"bted", tuner.NewBTED()},
		{"bted+bao", tuner.NewBTEDBAO()},
	})
	if err != nil {
		return nil, err
	}
	res := &BaselinesResult{}
	for _, row := range ab.Rows {
		res.Rows = append(res.Rows, BaselineRow{Tuner: row.Setting, GFLOPS: row.GFLOPS, RelPct: row.RelPct, Configs: row.Configs})
	}
	return res, nil
}

// Print renders the comparison table.
func (r *BaselinesResult) Print(w io.Writer) {
	fprintf(w, "Baseline comparison (MobileNet-v1 task subset)\n")
	fprintf(w, "%-12s %12s %14s %10s\n", "tuner", "TFLOPS(avg)", "vs random(%)", "#configs")
	for _, row := range r.Rows {
		fprintf(w, "%-12s %12.3f %14.2f %10.0f\n", row.Tuner, row.GFLOPS, row.RelPct, row.Configs)
	}
}
