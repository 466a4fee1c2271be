// Command tune optimizes model deployments end to end with a chosen search
// strategy on a simulated device, reporting per-task results and the final
// latency statistics, and optionally writing the tuning log.
//
// Usage:
//
//	tune -model mobilenet-v1 -tuner bted+bao -budget 512 -log out.jsonl
//	tune -model all -parallel 5 -workers 8
//
// -model accepts one name, a comma-separated list, or "all" (the five paper
// models). Multiple models tune concurrently on -parallel goroutines, each
// with its own simulator and transfer history (history updates stay ordered
// within a model because its tasks tune sequentially); per-model reports are
// printed in list order when everything finishes. Model i derives its run
// seed as seed+i*104729, so a multi-model run is reproducible and model
// results do not depend on -parallel. With -log and several models, each
// model writes <log>.<model>.
//
// The record log streams: every measurement is appended as one JSON line
// and flushed at batch boundaries, so an interrupt (Ctrl-C) leaves a clean
// checkpoint that -resume can pick up. Interrupted runs exit nonzero.
//
// -checkpoint goes further than the record log: every scheduler boundary
// appends a self-contained snapshot frame (run flags, record-log position,
// full tuner/scheduler state), each written atomically enough that Ctrl-C
// at any instant leaves a resumable file. -resume detects a checkpoint file
// by its magic and continues the run bit-identically — the remaining
// measurements, the record log, and the final summary come out exactly as
// an uninterrupted run's. Resume requires the original flags (model, tuner,
// seed, budget shape); mismatches fail loudly. The record log, when also
// given, is rewound to the checkpoint's position and extended in place.
//
// Within a model, -task-concurrency hands the task list to the graph
// scheduler: 1 (the default) is the classic sequential pipeline, higher
// values tune tasks concurrently in deterministic rounds with identical
// results for every concurrency value. -budget-policy picks how the
// scheduler spends the measurement budget (uniform per task, or adaptive
// reallocation toward the tasks still improving), and -dry-run prints the
// planned round/budget schedule without measuring anything.
//
// Tuners: autotvm | bted | bted+bao | random | grid | ga | chameleon.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/par"
	"repro/internal/record"
	"repro/internal/sched"
	"repro/internal/snap"
	"repro/internal/tuner"
)

func main() {
	model := flag.String("model", "mobilenet-v1", "model name, comma-separated list, or \"all\" (see cmd/space -list)")
	tunerName := flag.String("tuner", "bted+bao", "autotvm | bted | bted+bao | random | grid | ga | chameleon")
	ops := flag.String("ops", "all", "task extraction: conv or all")
	budget := flag.Int("budget", 512, "measurement budget per task")
	earlyStop := flag.Int("earlystop", 400, "early stopping threshold (<0 disables)")
	planSize := flag.Int("plan", 64, "batch/initialization size")
	runs := flag.Int("runs", 600, "end-to-end latency runs")
	seed := flag.Int64("seed", 2021, "random seed")
	logPath := flag.String("log", "", "stream tuning records (JSON lines) to this file")
	resumePath := flag.String("resume", "", "resume from a previous record log (JSON lines) or a -checkpoint file")
	checkpointPath := flag.String("checkpoint", "", "stream run checkpoints to this file; -resume from it continues the run bit-identically")
	checkpointEvery := flag.Int("checkpoint-every", 0, "minimum new measurements between checkpoints (0: every scheduler boundary)")
	stopAfter := flag.Int("stop-after-checkpoints", 0, "testing hook: interrupt the run after N checkpoints (0 disables)")
	device := flag.String("device", "gtx1080ti", "simulated device: "+strings.Join(backend.Devices(), " | "))
	workers := flag.Int("workers", 0, "measurement worker pool per task (<=0: GOMAXPROCS)")
	parallel := flag.Int("parallel", 0, "models tuned concurrently (<=0: GOMAXPROCS, capped at model count)")
	timeout := flag.Duration("task-timeout", 0, "per-task wall-clock deadline (0 disables); expiry deploys the best found so far")
	taskConc := flag.Int("task-concurrency", 1, "tasks tuned concurrently by the graph scheduler (1: classic sequential pipeline)")
	budgetPolicy := flag.String("budget-policy", "uniform", "scheduler budget policy: uniform | adaptive")
	dryRun := flag.Bool("dry-run", false, "print the planned round/budget schedule per task and exit without measuring")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	// Ctrl-C (or SIGTERM) cancels the run context: in-flight measurements
	// finish, the record log flushes its checkpoint, and the command exits
	// nonzero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The job the flags denote, minus the model: cmd/tune passes every
	// field explicitly (no Normalized defaults), so the stream is exactly
	// what the flags say. Each model of the run fills in Model and derives
	// its Seed from this one.
	spec := job.Spec{
		Tuner: *tunerName, Device: *device, Ops: *ops,
		Seed: *seed, Budget: *budget, EarlyStop: *earlyStop,
		PlanSize: *planSize, Runs: *runs, Workers: *workers,
		TaskConcurrency: *taskConc, BudgetPolicy: *budgetPolicy,
		CheckpointEvery: *checkpointEvery,
	}
	if *dryRun {
		if err := printDryRun(os.Stdout, resolveModels(*model), spec); err != nil {
			fmt.Fprintln(os.Stderr, "tune:", err)
			os.Exit(1)
		}
		return
	}
	// Profiled body in its own function so deferred profile teardown runs
	// before os.Exit.
	if err := profiledRun(ctx, *cpuProfile, *memProfile, func(ctx context.Context) error {
		return run(ctx, resolveModels(*model), spec, *timeout, *stopAfter, *logPath, *resumePath, *checkpointPath, *parallel)
	}); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "tune: interrupted; record log and checkpoint flushed:", err)
		} else {
			fmt.Fprintln(os.Stderr, "tune:", err)
		}
		os.Exit(1)
	}
}

// profiledRun wraps body with optional CPU and heap profiling: the CPU
// profile covers the whole body, the heap profile is snapshotted after a GC
// once the body returns.
func profiledRun(ctx context.Context, cpuProfile, memProfile string, body func(context.Context) error) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "tune: close cpu profile:", cerr)
			}
		}()
	}
	err := body(ctx)
	if memProfile != "" {
		f, werr := os.Create(memProfile)
		if werr == nil {
			runtime.GC()
			werr = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
		}
		if werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// printDryRun prints the scheduler's planned round/budget schedule for each
// model without running a single measurement: task list, policy, and the
// per-round grants with cumulative budgets (idealized — early stopping and
// measured gains will bend the real run).
func printDryRun(w io.Writer, models []string, spec job.Spec) error {
	policy, err := sched.PolicyByName(spec.BudgetPolicy)
	if err != nil {
		return err
	}
	for _, model := range models {
		g, err := graph.Model(model)
		if err != nil {
			return err
		}
		gtasks := graph.ExtractTasks(g, spec.Extract())
		specs := make([]sched.Spec, 0, len(gtasks))
		for _, gt := range gtasks {
			task, err := tuner.FromGraphTask(gt)
			if err != nil {
				return err
			}
			specs = append(specs, sched.Spec{Task: task, Opts: tuner.Options{
				Budget: spec.Budget, EarlyStop: spec.EarlyStop, PlanSize: spec.PlanSize,
			}})
		}
		plans := sched.PlanPreview(specs, sched.Options{TaskConcurrency: spec.TaskConcurrency, Policy: policy})
		fmt.Fprintf(w, "%s: %d tasks, policy %s, task-concurrency %d, %d planned rounds\n",
			model, len(specs), policy.Name(), spec.TaskConcurrency, len(plans))
		for _, plan := range plans {
			fmt.Fprintf(w, "  round %2d:", plan.Round+1)
			for _, gr := range plan.Grants {
				fmt.Fprintf(w, "  %s +%d (=%d)", specs[gr.Index].Task.Name, gr.Grant, gr.Cumulative)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

func resolveModels(spec string) []string {
	if spec == "all" {
		return append([]string(nil), graph.ModelNames...)
	}
	var out []string
	for _, m := range strings.Split(spec, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// run tunes every model of the list. spec carries everything but the model;
// model i runs with spec.Seed+i*104729. taskTimeout is the per-task
// wall-clock deadline and stopAfter the testing hook that interrupts the
// run after that many checkpoints (0 disables either).
func run(ctx context.Context, models []string, spec job.Spec, taskTimeout time.Duration, stopAfter int, logPath, resumePath, cpPath string, parallel int) error {
	if len(models) == 0 {
		return fmt.Errorf("no models given")
	}
	var resume []record.Record
	var resumeCp *job.Checkpoint
	if resumePath != "" {
		kind, err := snap.Detect(resumePath)
		if err != nil {
			return err
		}
		if kind == snap.KindSnap {
			if len(models) != 1 {
				return fmt.Errorf("-resume with a checkpoint file drives a single model (a multi-model run writes one checkpoint per model)")
			}
			if resumeCp, _, err = job.LoadSnap(resumePath); err != nil {
				return err
			}
			if resumeCp == nil {
				return fmt.Errorf("checkpoint %s holds no complete %q frame", resumePath, job.CheckpointKind)
			}
			fmt.Printf("resuming %s from checkpoint %s (round %d, %d records)\n",
				resumeCp.Model, resumePath, resumeCp.Sched.Round, resumeCp.Records)
		} else {
			if cpPath != "" {
				// A checkpoint only continues bit-identically when the resumed
				// run rebuilds the exact inputs, and the warm-start records
				// behind a record-log -resume are not part of the frame.
				return fmt.Errorf("-checkpoint cannot be combined with a record-log -resume; resume from the checkpoint file instead")
			}
			f, err := os.Open(resumePath)
			if err != nil {
				return err
			}
			resume, err = record.Read(f)
			f.Close()
			if err != nil {
				return err
			}
			fmt.Printf("resuming from %d records in %s\n", len(resume), resumePath)
		}
	}

	if len(models) == 1 {
		spec.Model = models[0]
		return runModel(ctx, os.Stdout, spec, taskTimeout, stopAfter, logPath, resume, cpPath, resumeCp)
	}

	if parallel <= 0 {
		parallel = par.Workers()
	}
	if parallel > len(models) {
		parallel = len(models)
	}
	fmt.Printf("tuning %d models, %d concurrently\n", len(models), parallel)
	// Each model gets a decorrelated seed and buffers its report so the
	// concurrent runs print cleanly in list order at the end. The ctx-aware
	// pool stops dispatching new models once the run is cancelled; models
	// already running checkpoint themselves.
	outs := make([]bytes.Buffer, len(models))
	errs := make([]error, len(models))
	started := par.ForContext(ctx, len(models), parallel, func(i int) {
		lp := logPath
		if lp != "" {
			lp = fmt.Sprintf("%s.%s", logPath, models[i])
		}
		cp := cpPath
		if cp != "" {
			cp = fmt.Sprintf("%s.%s", cpPath, models[i])
		}
		ms := spec
		ms.Model, ms.Seed = models[i], spec.Seed+int64(i)*104729
		errs[i] = runModel(ctx, &outs[i], ms, taskTimeout, stopAfter, lp, resume, cp, nil)
	})
	var firstErr error
	for i, m := range models {
		fmt.Printf("\n===== %s =====\n", m)
		if _, err := io.Copy(os.Stdout, &outs[i]); err != nil {
			return err
		}
		if i >= started && errs[i] == nil {
			errs[i] = ctx.Err()
		}
		if errs[i] != nil {
			fmt.Printf("error: %v\n", errs[i])
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", m, errs[i])
			}
		}
	}
	return firstErr
}

// runModel tunes one model: spec is complete (Model and Seed set).
func runModel(ctx context.Context, w io.Writer, spec job.Spec, taskTimeout time.Duration, stopAfter int, logPath string, resume []record.Record, cpPath string, resumeCp *job.Checkpoint) error {
	// -stop-after-checkpoints interrupts through the same path Ctrl-C does:
	// cancelling the run context after the Nth checkpoint lands.
	ctx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	// Per-task wall-clock report, collected from completion events (which the
	// pipeline serializes, so plain map writes are safe).
	elapsed := make(map[string]time.Duration)
	opts := job.RunOptions{
		LogPath:          logPath,
		CheckpointPath:   cpPath,
		ResumeRecords:    resume,
		ResumeCheckpoint: resumeCp,
		TaskDeadline:     taskTimeout,
		Progress: func(i, n int, name string) {
			fmt.Fprintf(w, "[%2d/%2d] tuning %s\n", i, n, name)
		},
		OnTaskDone: func(e core.TaskEvent) {
			elapsed[e.Name] = e.Elapsed
			fmt.Fprintf(w, "[%2d/%2d] done   %s: %d measurements in %v\n",
				e.Index, e.Total, e.Name, e.Result.Measurements, e.Elapsed.Round(time.Millisecond))
		},
	}
	if stopAfter > 0 {
		opts.AfterCheckpoint = func(n int) {
			if n >= stopAfter {
				cancelRun()
			}
		}
	}

	res, err := job.Run(ctx, spec, opts)
	if res.Streamed {
		fmt.Fprintf(w, "streamed %d records to %s\n", res.Records, logPath)
	}
	if err != nil {
		return err
	}
	dep := res.Deployment

	fmt.Fprintln(w)
	for _, t := range dep.Tasks {
		fmt.Fprintf(w, "%-24s best %9.1f GFLOPS after %4d measurements in %v\n",
			t.Task.Name, t.Result.Best.GFLOPS, t.Result.Measurements,
			elapsed[t.Task.Name].Round(time.Millisecond))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, dep.Summary())

	if shares, berr := dep.Breakdown(res.Backend.Simulator().Estimator()); berr == nil {
		fmt.Fprintln(w, "\nlatency breakdown (top tasks):")
		if len(shares) > 8 {
			shares = shares[:8]
		}
		if perr := core.PrintBreakdown(w, shares); perr != nil {
			return perr
		}
	}
	return nil
}
