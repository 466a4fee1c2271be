package job

import (
	"context"
	"os"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/sched"
	"repro/internal/tuner"
)

// RunOptions wires one job run to its files and callbacks. Everything that
// determines the record stream lives in the Spec; RunOptions only carries
// where the stream goes and who watches it.
type RunOptions struct {
	// LogPath, when set, streams the record log there: one JSON line per
	// measurement, flushed at plan-size boundaries so an interrupt loses at
	// most one in-progress batch.
	LogPath string
	// CheckpointPath, when set, appends a self-contained checkpoint frame
	// at scheduler boundaries (cadence: Spec.CheckpointEvery).
	CheckpointPath string
	// ResumeRecords warm-starts matching tasks from a previous run's log
	// (they are never re-measured). Mutually exclusive with
	// ResumeCheckpoint in practice: warm-start records are not part of a
	// checkpoint frame, so the caller enforces the split.
	ResumeRecords []record.Record
	// ResumeCheckpoint continues a previous run bit-identically from its
	// checkpoint. The Spec must match the frame (Checkpoint.Validate).
	// When CheckpointPath equals the frame's Path the file is appended to,
	// not truncated; the record log at LogPath is rewound to the frame's
	// record count first.
	ResumeCheckpoint *Checkpoint
	// TaskDeadline bounds each task's tuning wall clock (0: none). CLI
	// convenience only — deadline expiry is load-dependent, so the service
	// never sets it.
	TaskDeadline time.Duration
	// OnRecordLine, when non-nil, receives every measurement after it is
	// appended to the log (if any), with the record's canonical wire bytes
	// (record.Line) alongside the decoded record — the manager's live
	// fan-out hook. The line is the same allocation that fed the log —
	// encoded exactly once per record — and must be treated as immutable by
	// the receiver. Like all pipeline callbacks it is mutex-serialized by
	// core.
	OnRecordLine func(rec record.Record, line []byte)
	// Shared, when non-nil, layers the fleet-wide measurement memo over the
	// job's backend. Cache hits are bit-identical to re-measuring (see
	// backend.SharedCache), so this changes how much simulator work the job
	// does, never the record stream it produces.
	Shared *backend.SharedCache
	// Progress and OnTaskDone are forwarded to the pipeline for reporting.
	Progress   func(taskIdx, taskTotal int, name string)
	OnTaskDone func(core.TaskEvent)
	// AfterCheckpoint, when non-nil, is called after the n-th checkpoint
	// frame lands (n is 1-based). cmd/tune's -stop-after-checkpoints test
	// hook cancels the run context from here, riding the same path Ctrl-C
	// does.
	AfterCheckpoint func(n int)
}

// RunResult is what a finished (or interrupted) run leaves behind.
type RunResult struct {
	// Deployment is the tuned model; nil when the run failed or was
	// cancelled.
	Deployment *core.Deployment
	// Backend is the simulated device the run measured on — CLI reports
	// derive latency breakdowns from its estimator.
	Backend *backend.Sim
	// Records is the record-log count after the final flush (0 without a
	// log).
	Records int
	// Streamed reports whether the record log was written and flushed —
	// the condition under which cmd/tune reports the streamed count even
	// for an interrupted run.
	Streamed bool
}

// Run executes one job: seed setup, record-log streaming, checkpoint
// framing, resume alignment, and the core pipeline drive — the lifecycle
// cmd/tune and cmd/served share. The record stream it produces is a pure
// function of (Spec, Spec.Seed); interrupts via ctx leave the log and
// checkpoint stream aligned for a bit-identical resume.
func Run(ctx context.Context, spec Spec, opts RunOptions) (res *RunResult, err error) {
	res = &RunResult{}
	tn, err := NewTuner(spec.Tuner)
	if err != nil {
		return res, err
	}
	b, err := backend.New(spec.Device, spec.Seed)
	if err != nil {
		return res, err
	}
	res.Backend = b
	resumeCp := opts.ResumeCheckpoint
	if resumeCp != nil {
		if err := resumeCp.Validate(spec); err != nil {
			return res, err
		}
	}

	popts := core.PipelineOptions{
		Tuning: tuner.Options{
			Budget:    spec.Budget,
			EarlyStop: spec.EarlyStop,
			PlanSize:  spec.PlanSize,
			Seed:      spec.Seed,
			Workers:   spec.Workers,
		},
		Extract:         spec.Extract(),
		UseTransfer:     true,
		Resume:          opts.ResumeRecords,
		Runs:            spec.Runs,
		TaskDeadline:    opts.TaskDeadline,
		TaskConcurrency: spec.TaskConcurrency,
		BudgetPolicy:    spec.BudgetPolicy,
		Progress:        opts.Progress,
		OnTaskDone:      opts.OnTaskDone,
	}

	// Stream the record log: one JSON line per measurement, flushed at each
	// batch boundary so an interrupt loses at most one in-progress batch. A
	// checkpoint resume first rewinds the log to the records the checkpoint
	// counted, then appends from there with the count carried over so batch
	// boundaries land exactly where an uninterrupted run's would.
	planSize := popts.Tuning.Normalized().PlanSize
	var sw *record.StreamWriter
	if opts.LogPath != "" {
		var f *os.File
		if resumeCp != nil {
			if err := record.TruncatePrefix(opts.LogPath, resumeCp.Records); err != nil {
				return res, err
			}
			if f, err = os.OpenFile(opts.LogPath, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
				return res, err
			}
			sw = record.NewStreamWriterAt(f, resumeCp.Records)
		} else {
			if f, err = os.Create(opts.LogPath); err != nil {
				return res, err
			}
			sw = record.NewStreamWriter(f)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	if sw != nil || opts.OnRecordLine != nil {
		popts.OnRecord = func(rec record.Record) {
			// Encode once: the same wire bytes feed the log and every live
			// subscriber. Encoding a Record cannot realistically fail (plain
			// fields, no cycles), but if it ever does the log's Append latches
			// the error exactly as before.
			line, lerr := record.Line(rec)
			if sw != nil {
				var aerr error
				if lerr != nil {
					aerr = sw.Append(rec)
				} else {
					aerr = sw.AppendLine(line)
				}
				if aerr == nil && sw.Count()%planSize == 0 {
					_ = sw.Flush() // latched too; per-batch checkpoint is best-effort
				}
			}
			if lerr == nil && opts.OnRecordLine != nil {
				opts.OnRecordLine(rec, line)
			}
		}
	}

	// Stream checkpoints: each scheduler boundary appends one self-contained
	// frame with a single write, so an interrupt at any instant leaves a
	// valid checkpoint file. The record log flushes first — a frame's record
	// count must never exceed what the log actually holds.
	var cpFile *SnapFile
	if opts.CheckpointPath != "" {
		appendMode := resumeCp != nil && resumeCp.Path == opts.CheckpointPath
		cpFile, err = CreateSnapFile(opts.CheckpointPath, appendMode)
		if err != nil {
			return res, err
		}
		defer func() {
			if cerr := cpFile.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		checkpoints := 0
		popts.CheckpointEvery = spec.CheckpointEvery
		popts.OnCheckpoint = func(cp *sched.Checkpoint) {
			count := 0
			if sw != nil {
				_ = sw.Flush() // latched; reported at the final Flush below
				count = sw.Count()
			}
			_ = cpFile.Append(CheckpointKind, checkpointOf(spec, count, cp)) // latched; checked after the run
			checkpoints++
			if opts.AfterCheckpoint != nil {
				opts.AfterCheckpoint(checkpoints)
			}
		}
	}
	if resumeCp != nil {
		popts.ResumeCheckpoint = resumeCp.Sched
	}

	dep, derr := core.OptimizeModel(ctx, spec.Model, tn, backend.WithShared(b, opts.Shared), popts)
	if sw != nil {
		if ferr := sw.Flush(); ferr != nil && derr == nil {
			return res, ferr
		}
		res.Records = sw.Count()
		res.Streamed = true
	}
	if cpFile != nil && cpFile.Err() != nil && derr == nil {
		return res, cpFile.Err()
	}
	if derr != nil {
		return res, derr
	}
	res.Deployment = dep
	return res, nil
}
