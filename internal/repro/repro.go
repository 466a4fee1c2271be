// Package repro regenerates every table and figure of the paper's
// evaluation section on the simulated platform: Fig. 4 (convergence curves
// for the first two MobileNet-v1 layers), Fig. 5 (per-task sampled-config
// counts and GFLOPS ratios over the 19 MobileNet-v1 tasks), Table I
// (end-to-end latency and variance for the five models under AutoTVM,
// BTED, and BTED+BAO), and the ablations of the design choices called out
// in DESIGN.md.
//
// Every arm comparison runs on one engine with its arms paired: all arms
// of a trial tune with the trial's one seed (common random numbers), so
// they see the same measurement noise. Fig. 4, Fig. 5, the ablations and
// the baseline sweep are Grids of (arm, task, trial) cells (grid.go);
// Table I's cells are job.Specs run by a job.Manager over a job.Store
// (table1.go). The batch, precision and cross-device studies are not arm
// comparisons and keep their own seeding.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/backend"
	"repro/internal/graph"
	"repro/internal/hwsim"
	"repro/internal/tuner"
)

// Methods are the three experimental arms of the paper, in column order.
var Methods = []string{"AutoTVM", "BTED", "BTED+BAO"}

// NewMethodTuner builds the tuner of an experimental arm by column index.
func NewMethodTuner(i int) tuner.Tuner {
	switch i {
	case 0:
		return tuner.NewAutoTVM()
	case 1:
		return tuner.NewBTED()
	default:
		return tuner.NewBTEDBAO()
	}
}

// Config scales an experiment run. The zero value is unusable; start from
// Quick or Paper.
type Config struct {
	Trials    int   // independent repetitions averaged together (paper: 10)
	Budget    int   // measurement budget per task (paper: 1024)
	EarlyStop int   // early-stopping threshold (paper: 400; <0 disables)
	PlanSize  int   // batch/init size (paper: 64)
	Runs      int   // end-to-end latency runs (paper: 600)
	Seed      int64 // base seed; trial t runs every arm and task with trialSeed(t)
	// TaskConcurrency is handed to the pipeline's graph scheduler: 1 (or 0)
	// is the classic sequential pipeline; higher values tune that many tasks
	// concurrently in deterministic rounds without changing any result.
	TaskConcurrency int
	// BudgetPolicy selects the scheduler's budget policy by name ("",
	// "uniform", or "adaptive"); see core.PipelineOptions.
	BudgetPolicy string
	// Progress, when non-nil, receives coarse progress lines. Studies call
	// it from one goroutine at a time.
	Progress func(string)
}

// Paper returns the paper's full experimental settings. A complete Table I
// regeneration at these settings takes on the order of an hour of CPU time;
// use Quick for smoke runs and benchmarks.
func Paper() Config {
	return Config{Trials: 10, Budget: 1024, EarlyStop: 400, PlanSize: 64, Runs: 600, Seed: 2021}
}

// Quick returns scaled-down settings that preserve the qualitative shape
// (who wins, by roughly what factor) at a small fraction of the cost.
func Quick() Config {
	return Config{Trials: 2, Budget: 224, EarlyStop: 128, PlanSize: 32, Runs: 200, Seed: 2021}
}

func (c Config) progress(format string, args ...interface{}) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

// trialSeed decorrelates trials deterministically. Every arm and task of
// a trial shares it.
func (c Config) trialSeed(trial int) int64 { return c.Seed + int64(trial)*104729 }

// mobilenetTasks extracts the 19 conv/depthwise tasks of Fig. 4/5.
func mobilenetTasks() ([]*tuner.Task, error) {
	g := graph.MobileNetV1()
	gts := graph.ExtractTasks(g, graph.ConvOnly)
	out := make([]*tuner.Task, 0, len(gts))
	for _, gt := range gts {
		t, err := tuner.FromGraphTask(gt)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// newSim builds the measurement environment of one trial.
func newSim(seed int64) *hwsim.Simulator {
	return hwsim.NewSimulator(hwsim.GTX1080Ti(), seed)
}

// newBackend wraps one trial's simulator as the measurement backend of the
// reproduction device (the paper tunes on a GTX 1080 Ti).
func newBackend(seed int64) backend.Backend {
	return backend.Wrap("gtx1080ti", newSim(seed))
}

// tuneTrial runs one (task, method) tuning trial. A completed search that
// never saw a valid deployment is not an error at this level — the trial
// simply contributes no GFLOPS to its row, while its Measurements still
// count — but cancellation and every other failure propagate so studies
// abort promptly.
func tuneTrial(ctx context.Context, tn tuner.Tuner, task *tuner.Task, b backend.Backend, opts tuner.Options) (tuner.Result, error) {
	r, err := tuner.Tune(ctx, tn, task, b, opts)
	if err != nil && !errors.Is(err, tuner.ErrNoValidConfig) {
		return r, err
	}
	return r, nil
}

// meanOf averages a slice, returning 0 for empty input.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fprintf writes formatted output, deliberately dropping the write error:
// report writers target in-memory buffers and stdout, and a failed
// terminal write must not abort an experiment whose numbers are already
// computed.
func fprintf(w io.Writer, format string, args ...interface{}) {
	_, _ = fmt.Fprintf(w, format, args...)
}
