package job

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/sched"
	"repro/internal/snap"
)

// CheckpointKind tags a job's checkpoint frames. The kind predates the job
// package (cmd/tune wrote it as "tune-checkpoint/v1"), and keeping the
// token means checkpoint files written before the lifecycle moved here
// still resume.
const CheckpointKind = "tune-checkpoint/v1"

// Checkpoint is one checkpoint frame: the run inputs that must match on
// resume (the scheduler state is only meaningful against the exact model,
// tuner, seeds, and budget shape that produced it), the record-log
// position the frame is aligned with, and the scheduler's serialized
// state.
//
// Workers and wall-clock deadlines are deliberately absent: measurement
// results are worker-count invariant, and per-task deadline clocks restart
// on resume by design.
//
// The field declaration order is the frame's canonical JSON order — do not
// reorder.
type Checkpoint struct {
	Model     string `json:"model"`
	Tuner     string `json:"tuner"`
	Device    string `json:"device"`
	Ops       string `json:"ops"`
	Seed      int64  `json:"seed"`
	Budget    int    `json:"budget"`
	EarlyStop int    `json:"early_stop"`
	PlanSize  int    `json:"plan_size"`
	Runs      int    `json:"runs"`
	TaskConc  int    `json:"task_concurrency"`
	Policy    string `json:"budget_policy"`
	// Records counts the record-log entries flushed before this frame was
	// written. Resume truncates the log back to exactly this many records,
	// discarding measurements from the interrupted tail, and continues
	// appending from there.
	Records int               `json:"records"`
	Sched   *sched.Checkpoint `json:"sched"`

	// Path is the file this checkpoint was loaded from, so a resumed run
	// that checkpoints to the same file appends instead of truncating.
	Path string `json:"-"`
}

// checkpointOf captures the spec-derived header of a checkpoint frame; the
// runner fills Records and Sched per boundary.
func checkpointOf(spec Spec, records int, cp *sched.Checkpoint) *Checkpoint {
	return &Checkpoint{
		Model: spec.Model, Tuner: spec.Tuner, Device: spec.Device, Ops: spec.Ops,
		Seed: spec.Seed, Budget: spec.Budget, EarlyStop: spec.EarlyStop,
		PlanSize: spec.PlanSize, Runs: spec.Runs, TaskConc: spec.TaskConcurrency,
		Policy: spec.BudgetPolicy, Records: records, Sched: cp,
	}
}

// Validate rejects a resume whose spec differs from the checkpointed
// run's. The error names the diverging flag so CLI users can correct it.
func (tc *Checkpoint) Validate(spec Spec) error {
	checks := []struct {
		flag      string
		got, want any
	}{
		{"model", tc.Model, spec.Model},
		{"tuner", tc.Tuner, spec.Tuner},
		{"device", tc.Device, spec.Device},
		{"ops", tc.Ops, spec.Ops},
		{"seed", tc.Seed, spec.Seed},
		{"budget", tc.Budget, spec.Budget},
		{"earlystop", tc.EarlyStop, spec.EarlyStop},
		{"plan", tc.PlanSize, spec.PlanSize},
		{"runs", tc.Runs, spec.Runs},
		{"task-concurrency", tc.TaskConc, spec.TaskConcurrency},
		{"budget-policy", tc.Policy, spec.BudgetPolicy},
	}
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("checkpoint was written with -%s %v, this run has %v (resume with the original flags)", c.flag, c.got, c.want)
		}
	}
	if tc.Sched == nil {
		return fmt.Errorf("checkpoint frame carries no scheduler state")
	}
	return nil
}

// LoadSnap parses the snap stream at path once and returns its latest
// complete checkpoint frame and its terminal result frame, each nil when
// the stream holds none. A missing or empty file (a crash before the first
// frame) holds neither. Any other file that is not a snap stream is an
// error: a record log dropped where the stream belongs must fail loudly
// instead of reading as "no checkpoint" and silently restarting the job.
// Torn final frames are tolerated (snap.ReadFile semantics).
func LoadSnap(path string) (*Checkpoint, *Result, error) {
	switch kind, err := snap.Detect(path); {
	case errors.Is(err, os.ErrNotExist), err == nil && kind == snap.KindEmpty:
		return nil, nil, nil
	case err != nil:
		return nil, nil, fmt.Errorf("job: reading %s: %w", path, err)
	case kind != snap.KindSnap:
		return nil, nil, fmt.Errorf("job: %s is a %s, not a checkpoint stream", path, kind)
	}
	frames, err := snap.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("job: reading %s: %w", path, err)
	}
	var cp *Checkpoint
	if fr, ok := snap.Last(frames, CheckpointKind); ok {
		cp = &Checkpoint{}
		if err := fr.Unmarshal(cp); err != nil {
			return nil, nil, fmt.Errorf("job: decoding %s frame in %s: %w", CheckpointKind, path, err)
		}
		cp.Path = path
	}
	var res *Result
	if fr, ok := snap.Last(frames, ResultKind); ok {
		res = &Result{}
		if err := fr.Unmarshal(res); err != nil {
			return nil, nil, fmt.Errorf("job: decoding %s frame in %s: %w", ResultKind, path, err)
		}
	}
	return cp, res, nil
}
