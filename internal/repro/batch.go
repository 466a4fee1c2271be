package repro

import (
	"context"
	"io"

	"repro/internal/hwsim"
	"repro/internal/space"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

// BatchRow is one (batch size) arm of the batch-size study.
type BatchRow struct {
	N            int
	GFLOPS       float64 // best tuned throughput at this batch size
	ReusedGFLOPS float64 // throughput of the N=1 winner re-applied at this N
	RetainPct    float64 // 100 * Reused / tuned
}

// BatchResult is the extension study: tune a convolution at batch size 1,
// then at larger batch sizes, and also re-apply the N=1 winner at each
// larger size. Low retention means schedules are batch-size-specific —
// the paper's "newly proposed models enlarge the configuration space"
// trend in miniature.
type BatchResult struct {
	Workload string
	Rows     []BatchRow
}

// Batch runs the study on the simulated GTX 1080 Ti.
func Batch(ctx context.Context, cfg Config) (*BatchResult, error) {
	base := tensor.Conv2D(1, 64, 28, 28, 128, 3, 1, 1)
	res := &BatchResult{Workload: base.Key()}

	// Every row needs a deployable winner, so tuning errors — including
	// tuner.ErrNoValidConfig — propagate unconditionally here.
	tune := func(w tensor.Workload, seed int64) (tuner.Result, *tuner.Task, error) {
		task, err := tuner.NewTask("batch", w)
		if err != nil {
			return tuner.Result{}, nil, err
		}
		b := newBackend(seed)
		r, err := tuner.Tune(ctx, tuner.NewBTEDBAO(), task, b, tuner.Options{
			Budget:    cfg.Budget,
			EarlyStop: cfg.EarlyStop,
			PlanSize:  cfg.PlanSize,
			Seed:      seed * 31,
		})
		if err != nil {
			return tuner.Result{}, nil, err
		}
		return r, task, nil
	}

	oneRes, _, err := tune(base, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, BatchRow{N: 1, GFLOPS: oneRes.Best.GFLOPS, ReusedGFLOPS: oneRes.Best.GFLOPS, RetainPct: 100})

	est := hwsim.Estimator{Dev: hwsim.GTX1080Ti()}
	for i, n := range []int{4, 8} {
		cfg.progress("batch study N=%d", n)
		w := base
		w.N = n
		r, task, err := tune(w, cfg.Seed+int64(i+1))
		if err != nil {
			return nil, err
		}
		row := BatchRow{N: n, GFLOPS: r.Best.GFLOPS}
		// Re-apply the N=1 winner. The knob structure matches only when
		// option counts coincide; map via per-knob clamping of indices.
		reused := remapConfig(oneRes.Best.Config, task)
		if e := est.Estimate(w, reused); e.Valid {
			row.ReusedGFLOPS = e.GFLOPS
			if row.GFLOPS > 0 {
				row.RetainPct = 100 * e.GFLOPS / row.GFLOPS
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// remapConfig carries a config into another task's space by clamping each
// knob index: spaces of the same operator share knob structure, only the
// option counts differ when extents differ.
func remapConfig(c space.Config, task *tuner.Task) space.Config {
	idx := make([]int, task.Space.NumKnobs())
	for i := range idx {
		v := 0
		if i < len(c.Index) {
			v = c.Index[i]
		}
		if max := task.Space.Knob(i).Len() - 1; v > max {
			v = max
		}
		idx[i] = v
	}
	out, err := task.Space.FromIndices(idx)
	if err != nil {
		return task.Space.FromFlat(0)
	}
	return out
}

// Print renders the study.
func (r *BatchResult) Print(w io.Writer) {
	fprintf(w, "Batch-size study on %s\n", r.Workload)
	fprintf(w, "%4s %12s %14s %10s\n", "N", "tuned GFLOPS", "reused(N=1)", "retain%")
	for _, row := range r.Rows {
		fprintf(w, "%4d %12.1f %14.1f %10.1f\n", row.N, row.GFLOPS, row.ReusedGFLOPS, row.RetainPct)
	}
}
