package sched

import (
	"context"
	"fmt"
	"time"

	"repro/internal/active"
	"repro/internal/tuner"
)

// CheckpointVersion is the schema version stamped into every checkpoint.
// Resume rejects checkpoints from a different version rather than guessing
// at field semantics.
const CheckpointVersion = 1

// Driver names stamped into checkpoints. A checkpoint can only resume under
// the policy selection that wrote it: the sequential policy (TaskConcurrency
// 1 with the uniform policy) chains transfer publication live from task to
// task, every other selection snapshots it at round boundaries, so
// continuing one kind of run as the other would not be the same run. The
// sequential name predates the single driver and is kept so existing
// checkpoint files keep resuming.
const (
	DriverSequential = "sequential"
	DriverRounds     = "rounds"
)

// driverName is the Driver stamp of runs under policy.
func driverName(policy Policy) string {
	if _, ok := policy.(sequentialPolicy); ok {
		return DriverSequential
	}
	return DriverRounds
}

// Checkpoint is the complete serializable state of a scheduler run at a
// round boundary. It deliberately excludes the ambient run inputs — specs,
// backend, policy, concurrency — which the resuming caller must supply
// exactly as it did originally; the checkpoint carries the driver stamp and
// the task list so mismatches fail loudly instead of silently diverging.
//
// Everything else a resumed run needs is either in here or derivable:
//
//   - Live sessions ride as tuner.SessionState snapshots and are rebuilt
//     via tuner.Opener.Restore.
//   - Finalized tasks ride as OutcomeState; their transfer publications are
//     replayed into the caller's (fresh) master history in Published order,
//     and the per-task views are re-cloned from the rebuilt master — the
//     next boundary refreshes them exactly as the original run's boundary
//     did.
//   - Tasks that had not started yet carry neither and open fresh.
//   - The budget policy's inputs (previous-boundary measured counts and
//     bests) are stored per task; the in-repo policies are otherwise
//     stateless, which the Policy contract requires of every implementation.
//
// Two pieces of state are intentionally not carried and restart on resume:
// per-task deadline clocks (Options.TaskDeadline re-arms at the task's first
// post-resume step) and wall-clock phase accounting (pure observability).
type Checkpoint struct {
	Version int    `json:"version"`
	Driver  string `json:"driver"`
	// Round is the boundary the checkpoint was captured at: the resumed run
	// re-enters the round loop there, so policies that read the round
	// number see the same sequence. (Sequential checkpoints written before
	// the single driver hold the index of the task being stepped instead;
	// the sequential policy ignores the round.)
	Round int `json:"round"`
	// Published lists the indices of tasks that have published their
	// samples to the master transfer history, in publication order. Resume
	// replays these Adds so rebuilt warm-start views are bit-identical.
	Published []int `json:"published,omitempty"`
	// Tasks is index-aligned with the run's specs.
	Tasks []TaskCheckpoint `json:"tasks"`
}

// TaskCheckpoint is one task's slice of a Checkpoint. At most one of
// Session (live task) and Outcome (finalized task) is set; both are nil for
// a task that has not started yet.
type TaskCheckpoint struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	// Rounds and ElapsedNS carry the Outcome bookkeeping accumulated so
	// far; they are reporting-only and never feed back into scheduling.
	Rounds    int   `json:"rounds,omitempty"`
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
	// PrevMeasured and PrevBest are the policy's previous-boundary view of
	// the task (TaskState.PrevMeasured / PrevBest).
	PrevMeasured int     `json:"prev_measured,omitempty"`
	PrevBest     float64 `json:"prev_best,omitempty"`
	// Session is the live session's snapshot at the boundary.
	Session *tuner.SessionState `json:"session,omitempty"`
	// Outcome is the finalized task's completion record.
	Outcome *OutcomeState `json:"outcome,omitempty"`
}

// OutcomeState is the serializable form of a finalized task's Outcome.
type OutcomeState struct {
	TunerName string              `json:"tuner"`
	Samples   []tuner.SampleState `json:"samples"`
	Best      *tuner.SampleState  `json:"best,omitempty"`
	Found     bool                `json:"found,omitempty"`
	// Err is the task's non-fatal error, by message. Only a per-task
	// deadline expiry can appear here (anything else aborts the run before
	// a checkpoint could record it), so resume revives it as an error that
	// still matches errors.Is(err, context.DeadlineExceeded).
	Err string `json:"err,omitempty"`
}

// restoredErr revives a finalized task's non-fatal error from a checkpoint.
// The only survivable task error is a per-task deadline expiry whose
// partial search still found a deployable best (see fatal), so the revived
// error keeps the context.DeadlineExceeded identity; any other wrapped
// detail is reduced to its message.
type restoredErr struct{ msg string }

func (e *restoredErr) Error() string { return e.msg }

func (e *restoredErr) Unwrap() error { return context.DeadlineExceeded }

// outcomeState captures a finalized outcome for a checkpoint.
func outcomeState(o Outcome) OutcomeState {
	st := OutcomeState{
		TunerName: o.Result.TunerName,
		Samples:   active.SamplesToState(o.Result.Samples),
		Found:     o.Result.Found,
	}
	if o.Result.Found {
		b := active.SamplesToState([]active.Sample{o.Result.Best})
		st.Best = &b[0]
	}
	if o.Err != nil {
		st.Err = o.Err.Error()
	}
	return st
}

// restoreOutcome rebuilds the finalized task's Outcome against the resuming
// run's task definition (configs are revalidated against its space).
func (tc *TaskCheckpoint) restoreOutcome(task *tuner.Task) (Outcome, error) {
	st := tc.Outcome
	samples, err := active.SamplesFromState(task.Space, st.Samples)
	if err != nil {
		return Outcome{}, fmt.Errorf("sched: resume task %s: %w", task.Name, err)
	}
	res := tuner.Result{
		TunerName:    st.TunerName,
		TaskName:     task.Name,
		Samples:      samples,
		Found:        st.Found,
		Measurements: len(samples),
	}
	if st.Best != nil {
		bs, err := active.SamplesFromState(task.Space, []tuner.SampleState{*st.Best})
		if err != nil {
			return Outcome{}, fmt.Errorf("sched: resume task %s: best: %w", task.Name, err)
		}
		res.Best = bs[0]
	}
	var oerr error
	if st.Err != "" {
		oerr = &restoredErr{msg: st.Err}
	}
	return Outcome{Index: tc.Index, Task: task, Result: res, Err: oerr,
		Elapsed: time.Duration(tc.ElapsedNS), Rounds: tc.Rounds}, nil
}

// validate checks a checkpoint against the resuming run's inputs: same
// schema version, same driver stamp (the caller must resume with the same
// concurrency and policy selection), and the same task list in the same
// order. Per-session mismatches — seed, tuner name, snapshot schema — are
// caught downstream by tuner.Opener.Restore.
func (cp *Checkpoint) validate(driver string, specs []Spec) error {
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("sched: resume: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if cp.Driver != driver {
		return fmt.Errorf("sched: resume: checkpoint from a %s run, but the options select a %s run (resume with the original concurrency and policy)", cp.Driver, driver)
	}
	if len(cp.Tasks) != len(specs) {
		return fmt.Errorf("sched: resume: checkpoint has %d tasks, run has %d", len(cp.Tasks), len(specs))
	}
	for i, tc := range cp.Tasks {
		if tc.Index != i || tc.Name != specs[i].Task.Name {
			return fmt.Errorf("sched: resume: checkpoint task %d is %q, run has %q", i, tc.Name, specs[i].Task.Name)
		}
	}
	return nil
}

// snapshotSession captures one live session, failing with a TaskError when
// the session cannot snapshot (a third-party tuner wrapped by
// tuner.AsOpener) or refuses to.
func snapshotSession(sess tuner.Session, name string, idx int) (*tuner.SessionState, error) {
	snap, ok := sess.(tuner.Snapshotter)
	if !ok {
		return nil, &TaskError{TaskName: name, Index: idx,
			Err: fmt.Errorf("checkpoint: %w", tuner.ErrSnapshotUnsupported)}
	}
	st, err := snap.Snapshot()
	if err != nil {
		return nil, &TaskError{TaskName: name, Index: idx, Err: err}
	}
	return &st, nil
}

// checkpoint captures the run at a round boundary: outcomes of finalized
// tasks, snapshots of live sessions, and bare bookkeeping for tasks that have
// not opened yet.
func checkpoint(policy Policy, round int, runs []*taskRun, outs []Outcome, published []int) (*Checkpoint, error) {
	cp := &Checkpoint{Version: CheckpointVersion, Driver: driverName(policy), Round: round,
		Published: append([]int(nil), published...), Tasks: make([]TaskCheckpoint, len(runs))}
	for i, tr := range runs {
		tc := TaskCheckpoint{Index: i, Name: tr.spec.Task.Name, Rounds: tr.rounds,
			ElapsedNS: int64(tr.elapsed), PrevMeasured: tr.prevMeas, PrevBest: tr.prevBest}
		switch {
		case tr.finalized:
			st := outcomeState(outs[i])
			tc.Outcome = &st
		case tr.sess != nil:
			snap, err := snapshotSession(tr.sess, tr.spec.Task.Name, i)
			if err != nil {
				return nil, err
			}
			tc.Session = snap
		}
		cp.Tasks[i] = tc
	}
	return cp, nil
}
