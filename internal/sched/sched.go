// Package sched is the deterministic graph-level scheduler behind the
// pipeline: it opens one resumable tuner session (*tuner.Session) per
// extracted task and advances them in rounds. Each round a budget policy
// grants tasks measurements, the granted tasks step concurrently (at most
// TaskConcurrency at a time) while each session's planned batches still run
// on the shared measurement pool, and the round boundary finalizes finished
// tasks and publishes their samples to the transfer history.
//
// There is one driver; the policy decides which tasks advance. TaskConcurrency
// 1 with the uniform policy runs the sequential policy: the lowest-index live
// task gets one plan per round and every other task waits, so tasks open, run
// to completion and publish one after another in spec order. A task opens at
// its first grant, with a transfer view cloned from the master history at
// that moment, so under the sequential policy every task warm-starts from all
// earlier tasks' samples — the live chaining of the classic per-task
// pipeline, bit for bit.
//
// # Determinism model
//
// Results are a pure function of the specs, the policy, and the backend
// seeds — never of timing:
//
//   - Sessions are self-contained: all search randomness is drawn from the
//     per-task seed, and seeded backends derive measurement noise from
//     (seed, config), so a task's sample stream does not depend on when its
//     steps run relative to other tasks'.
//   - Round structure is computed single-threaded at round boundaries from
//     the sessions' measured counts and best values, which themselves are
//     schedule-independent. TaskConcurrency therefore only changes how many
//     tasks' step work runs in parallel, not what any task measures.
//   - Transfer-learning history is snapshotted at round boundaries: every
//     live task reads a per-task view cloned when it opens and refreshed from
//     the master history after completed tasks publish to it in task-index
//     order, so cross-task warm starts see the same history regardless of
//     which goroutine finished first.
//
// Consequently outcomes are bit-identical across every Workers value, and
// across every TaskConcurrency >= 2 under one policy. With transfer off (or
// under the adaptive policy) TaskConcurrency 1 gives the same outcomes too;
// with transfer on, the sequential policy's live chaining differs from the
// concurrent schedules' warm starts in snapshot granularity only.
package sched

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/par"
	"repro/internal/transfer"
	"repro/internal/tuner"
)

// Spec is one task to schedule: the tuning problem plus its fully prepared
// per-task options (seed already derived, resume samples attached, observer
// chained, Transfer pointing at the run's master history).
type Spec struct {
	Task *tuner.Task
	Opts tuner.Options
}

// Outcome is the completion record of one task.
type Outcome struct {
	// Index is the task's position in the spec list.
	Index int
	Task  *tuner.Task
	// Result is what the equivalent Tune call would have returned.
	Result tuner.Result
	// Err is the task's non-fatal error (a per-task deadline expiry whose
	// partial search still found a deployable best). Fatal errors abort Run
	// instead and are reported as a *TaskError.
	Err error
	// Elapsed is the wall clock spent stepping this task's session.
	Elapsed time.Duration
	// Rounds is how many scheduler rounds the task was stepped in.
	Rounds int
}

// Options configures a scheduler run.
type Options struct {
	// TaskConcurrency is how many tasks step concurrently within a round.
	// With the uniform policy, <= 1 selects the sequential policy: tasks run
	// one after another in spec order with live transfer chaining (the
	// classic pipeline). Outcomes are identical for every Workers value,
	// and for every TaskConcurrency >= 2 under one policy.
	TaskConcurrency int
	// Policy allocates the per-round measurement budget; nil means
	// UniformPolicy.
	Policy Policy
	// TaskDeadline bounds each task's search wall clock (zero = none). The
	// deadline context starts at the task's first step.
	TaskDeadline time.Duration
	// OnTaskStart, when non-nil, is called once per task (1-based index)
	// when its session opens, just before its first step; the built-in
	// policies open tasks in spec order.
	OnTaskStart func(taskIdx, taskTotal int, name string)
	// OnTaskDone, when non-nil, receives each task's outcome the moment it
	// is finalized: at the round boundary after its last step, in
	// task-index order within a boundary (under the sequential policy that
	// is right after the task). It is invoked from the driver goroutine,
	// never concurrently.
	OnTaskDone func(Outcome)
	// OnCheckpoint, when non-nil, receives the run's serializable state at
	// round boundaries (see Checkpoint). It is invoked from the driver
	// goroutine, never concurrently with stepping, and the checkpoint is
	// fully detached — the callback may serialize it at leisure. A session
	// that cannot snapshot aborts the run with a *TaskError the first time a
	// checkpoint is due.
	OnCheckpoint func(*Checkpoint)
	// CheckpointEvery is the minimum number of new measurements between
	// checkpoints; boundaries reached earlier are skipped. 0 captures at
	// every boundary. The run-completing boundary always captures, so the
	// final checkpoint of a finished run has every task finalized.
	CheckpointEvery int
	// Resume, when non-nil, continues a previous run from its checkpoint
	// instead of starting fresh. The caller supplies the same specs,
	// backend, policy, and concurrency it originally ran with — with fresh
	// (empty) transfer histories, which resume repopulates from the
	// checkpoint — and the continued run's outcomes are bit-identical to
	// the uninterrupted run's. Callbacks fire only for events after the
	// checkpoint; outcomes restored from it are returned but not re-fired
	// through OnTaskDone. Per-task deadlines restart at the first
	// post-resume step.
	Resume *Checkpoint
}

// TaskError reports the fatal failure of one task, aborting the run.
type TaskError struct {
	TaskName string
	Index    int
	Err      error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("sched: task %s: %v", e.TaskName, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// fatal mirrors the pipeline's task-error tolerance: a per-task deadline
// expiry that still produced a deployable best is survivable — the best
// found within the budgeted time is deployed — while a parent cancellation,
// any other error, or an empty-handed task aborts the run.
func fatal(ctx context.Context, res tuner.Result, err error) bool {
	return err != nil && (ctx.Err() != nil || !errors.Is(err, context.DeadlineExceeded) || !res.Found)
}

// resolve returns the policy a run over n tasks executes under and its task
// concurrency, clamped to [1, n]. TaskConcurrency 1 with the uniform policy
// runs the sequential policy.
func resolve(opts Options, n int) (Policy, int) {
	policy := opts.Policy
	if policy == nil {
		policy = UniformPolicy{}
	}
	conc := max(1, min(opts.TaskConcurrency, n))
	if _, uniform := policy.(UniformPolicy); uniform && conc == 1 {
		policy = sequentialPolicy{}
	}
	return policy, conc
}

// taskRun is the driver's per-task state. Fields written by worker
// goroutines (done, elapsed, rounds, cancel) are only read by the driver
// goroutine after the round barrier; the task's deadline context itself
// lives in a slice local to Run (contexts are call-scoped).
type taskRun struct {
	idx        int
	spec       Spec
	sess       *tuner.Session    // nil until the task opens, and again once finalized
	master     *transfer.History // the spec's shared history, nil when transfer is off
	view       *transfer.History // round-boundary snapshot the session reads
	ownBudget  int               // the spec's normalized budget
	sessBudget int               // the cap baked into the session (policy may raise it)
	planSize   int
	goal       int // measured count the current round steps toward
	cancel     context.CancelFunc
	done       bool // session reported done
	finalized  bool
	elapsed    time.Duration
	rounds     int
	prevMeas   int
	prevBest   float64
	// finalMeasured / finalBest stand in for the session's accounting view
	// once the task is finalized and its session released.
	finalMeasured int
	finalBest     float64
}

// measured is the task's budget-accounting view: the live session's count,
// or the final one once the session is released (0 before it opens).
func (tr *taskRun) measured() int {
	if tr.sess != nil {
		return tr.sess.Measured()
	}
	return tr.finalMeasured
}

// best mirrors measured for the best-valid-GFLOPS view.
func (tr *taskRun) best() float64 {
	if tr.sess != nil {
		b, _ := tr.sess.BestGFLOPS()
		return b
	}
	return tr.finalBest
}

// open starts the task's session — restored from st when non-nil — reading
// a transfer view cloned from the master history as it stands now.
func (tr *taskRun) open(tn tuner.Tuner, b backend.Backend, st *tuner.SessionState) error {
	nopts := tr.spec.Opts.Normalized()
	nopts.Budget = tr.sessBudget
	if tr.master != nil {
		tr.view = tr.master.Clone()
		nopts.Transfer = tr.view
	}
	sess, err := tn.Open(tr.spec.Task, b, nopts, st)
	if err != nil {
		return &TaskError{TaskName: tr.spec.Task.Name, Index: tr.idx, Err: err}
	}
	tr.sess = sess
	return nil
}

// Run tunes every spec and returns the outcomes in spec order. On a fatal
// task failure it returns the outcomes finalized so far plus a *TaskError
// (wrapping the task's tuning error); the remaining tasks are not tuned.
//
// Each round the policy grants every live task a measurement allowance, the
// granted tasks step concurrently, and the boundary finalizes finished tasks
// and re-snapshots the transfer views. A session opens at its task's first
// grant and is released when the task is finalized, so the sequential policy
// holds one live session at a time.
func Run(ctx context.Context, tn tuner.Tuner, b backend.Backend, specs []Spec, opts Options) ([]Outcome, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	policy, conc := resolve(opts, len(specs))
	runs, totalBudget := newTaskRuns(specs, policy)
	defer func() {
		for _, tr := range runs {
			if tr.cancel != nil {
				tr.cancel()
			}
		}
	}()
	outs := make([]Outcome, len(specs))
	finalized := 0
	var published []int // indices in transfer-publication order
	firstRound := 0

	if cp := opts.Resume; cp != nil {
		if err := cp.validate(driverName(policy), specs); err != nil {
			return nil, err
		}
		for i, tr := range runs {
			tc := cp.Tasks[i]
			tr.rounds = tc.Rounds
			tr.elapsed = time.Duration(tc.ElapsedNS)
			tr.prevMeas = tc.PrevMeasured
			tr.prevBest = tc.PrevBest
			if tc.Outcome != nil {
				out, err := tc.restoreOutcome(tr.spec.Task)
				if err != nil {
					return nil, err
				}
				outs[i] = out
				tr.finalized = true
				tr.finalMeasured = out.Result.Measurements
				if out.Result.Found {
					tr.finalBest = out.Result.Best.GFLOPS
				}
				finalized++
			} else if tc.Session == nil && tc.Rounds > 0 {
				// A task with neither outcome nor session has not started
				// and opens fresh; one that already stepped must carry its
				// session.
				return nil, fmt.Errorf("sched: resume: live task %s has no session snapshot", tr.spec.Task.Name)
			}
		}
		// Replay transfer publications into the caller's fresh master
		// histories, in the original publication order.
		for _, idx := range cp.Published {
			if idx < 0 || idx >= len(runs) || !runs[idx].finalized {
				return nil, fmt.Errorf("sched: resume: published task %d is not finalized", idx)
			}
			tr := runs[idx]
			if tr.master != nil && len(outs[idx].Result.Samples) > 0 {
				tr.master.Add(tr.spec.Task.Name, tr.spec.Task.Workload.Op, outs[idx].Result.Samples)
			}
			published = append(published, idx)
		}
		// Restore the checkpointed sessions now that the masters are rebuilt,
		// so their views clone the content the original sessions read.
		for i, tr := range runs {
			if st := cp.Tasks[i].Session; st != nil && !tr.finalized {
				if err := tr.open(tn, b, st); err != nil {
					return nil, err
				}
			}
		}
		// Re-enter the loop at the checkpointed boundary: the boundary code
		// is idempotent for already-finalized tasks, and policies see the
		// same round numbers the uninterrupted run fed them. (Sequential
		// checkpoints written before the policy existed hold a task index
		// here; the sequential policy ignores the round.)
		firstRound = cp.Round
	}
	openFresh := func(tr *taskRun) error {
		if opts.OnTaskStart != nil {
			opts.OnTaskStart(tr.idx+1, len(specs), tr.spec.Task.Name)
		}
		return tr.open(tn, b, nil)
	}

	// Per-task stepping contexts (parent ctx, optionally under the task
	// deadline), created lazily at a task's first step so the deadline clock
	// starts when the task does (and restarts there on resume). Each slot is
	// touched by one worker per round and rounds are barriers, so plain
	// access is safe.
	tctxs := make([]context.Context, len(specs))
	lastCp := 0 // totalMeasured at the last captured checkpoint
	for round := firstRound; ; round++ {
		// A parent cancellation aborts the whole run, like the legacy
		// pipeline. Sessions cancelled mid-round latch the ctx error and are
		// reported as a fatal TaskError below instead.
		if err := ctx.Err(); err != nil {
			return doneOutcomes(outs, runs), fmt.Errorf("sched: run aborted: %w", err)
		}
		// ---- Round boundary (single goroutine) --------------------------
		totalMeasured := 0
		for _, tr := range runs {
			totalMeasured += tr.measured()
		}
		budgetSpent := totalMeasured >= totalBudget
		for i, tr := range runs {
			if tr.finalized {
				continue
			}
			if !tr.done && tr.measured() < tr.sessBudget && !budgetSpent {
				continue
			}
			if tr.sess == nil {
				// The budget ran out before the task's first grant: it still
				// reports the empty result its Tune call would have.
				if err := openFresh(tr); err != nil {
					return doneOutcomes(outs, runs), err
				}
			}
			res, rerr := tr.sess.Result()
			tr.finalized = true
			finalized++
			tr.finalMeasured, tr.finalBest = tr.measured(), tr.best()
			tr.sess, tr.view = nil, nil
			if tr.cancel != nil {
				tr.cancel()
				tr.cancel = nil
			}
			if fatal(ctx, res, rerr) {
				return doneOutcomes(outs, runs), &TaskError{TaskName: tr.spec.Task.Name, Index: i, Err: rerr}
			}
			// Publish to the master history exactly as the session's own
			// finalization published to its discarded view, recording the
			// order so resume can replay the Adds.
			if tr.master != nil && len(res.Samples) > 0 {
				tr.master.Add(tr.spec.Task.Name, tr.spec.Task.Workload.Op, res.Samples)
				published = append(published, i)
			}
			outs[i] = Outcome{Index: i, Task: tr.spec.Task, Result: res, Err: rerr,
				Elapsed: tr.elapsed, Rounds: tr.rounds}
			if opts.OnTaskDone != nil {
				opts.OnTaskDone(outs[i])
			}
		}
		for _, tr := range runs {
			if tr.view != nil {
				tr.view.CopyFrom(tr.master)
			}
		}
		// The checkpoint is captured after finalization and view refresh,
		// before allocation: resume re-enters this boundary, skips the
		// already-finalized tasks, and re-runs the same Allocate call.
		if opts.OnCheckpoint != nil && (finalized == len(specs) || totalMeasured-lastCp >= opts.CheckpointEvery) {
			cp, err := checkpoint(policy, round, runs, outs, published)
			if err != nil {
				return doneOutcomes(outs, runs), err
			}
			lastCp = totalMeasured
			opts.OnCheckpoint(cp)
		}
		if finalized == len(specs) {
			return outs, nil
		}

		// ---- Allocation -------------------------------------------------
		states := make([]TaskState, len(specs))
		for i, tr := range runs {
			states[i] = TaskState{
				Index: i, Name: tr.spec.Task.Name, Done: tr.finalized,
				Measured: tr.measured(), PrevMeasured: tr.prevMeas,
				Budget: tr.ownBudget, PlanSize: tr.planSize,
				Weight: tr.spec.Task.Count,
				Best:   tr.best(), PrevBest: tr.prevBest,
			}
		}
		grants := capGrants(policy.Allocate(round, states), states, runs, totalBudget-totalMeasured)
		var wl []*taskRun
		for i, tr := range runs {
			if !tr.finalized {
				tr.prevMeas = states[i].Measured
				tr.prevBest = states[i].Best
			}
			if grants[i] == 0 {
				continue
			}
			if tr.sess == nil {
				if err := openFresh(tr); err != nil {
					return doneOutcomes(outs, runs), err
				}
			}
			tr.goal = states[i].Measured + grants[i]
			wl = append(wl, tr)
		}

		// ---- Execution --------------------------------------------------
		// Each work item steps one session toward its goal; sessions are
		// single-goroutine but distinct, so items run concurrently. A
		// scheduled task always takes at least one step, so a session at its
		// cap reports done rather than stalling forever.
		par.For(len(wl), conc, func(j int) {
			tr := wl[j]
			start := time.Now() //lint:ignore walltime Outcome.Elapsed observability: per-task timing is reported, never scheduled on
			if tctxs[tr.idx] == nil {
				tctxs[tr.idx] = ctx
				if opts.TaskDeadline > 0 {
					tctxs[tr.idx], tr.cancel = context.WithTimeout(ctx, opts.TaskDeadline)
				}
			}
			for {
				done, _ := tr.sess.Step(tctxs[tr.idx])
				if done {
					tr.done = true
					break
				}
				if tr.sess.Measured() >= tr.goal {
					break
				}
			}
			tr.elapsed += time.Since(start) //lint:ignore walltime Outcome.Elapsed observability: accumulate-only
			tr.rounds++
		})
	}
}

// newTaskRuns builds the per-task bookkeeping from the specs' normalized
// options and returns it with the graph-wide budget.
func newTaskRuns(specs []Spec, policy Policy) ([]*taskRun, int) {
	runs := make([]*taskRun, len(specs))
	totalBudget := 0
	for i, sp := range specs {
		nopts := sp.Opts.Normalized()
		runs[i] = &taskRun{idx: i, spec: sp, master: sp.Opts.Transfer,
			ownBudget: nopts.Budget, planSize: nopts.PlanSize}
		totalBudget += nopts.Budget
	}
	for _, tr := range runs {
		tr.sessBudget = policy.SessionBudget(tr.ownBudget, totalBudget)
	}
	return runs, totalBudget
}

// capGrants turns a policy's allocation into the round's work: each live
// task's grant is capped by its session budget and by the graph-wide
// budget still unspent, in task-index order. When that leaves nothing
// granted although live tasks remain, the liveness guard advances every live
// task by one plan so the run always terminates. The result is index-aligned
// with states; 0 means the task sits the round out.
func capGrants(alloc []int, states []TaskState, runs []*taskRun, remaining int) []int {
	grants := make([]int, len(states))
	granted := false
	for i, st := range states {
		if st.Done || i >= len(alloc) {
			continue
		}
		if g := min(alloc[i], runs[i].sessBudget-st.Measured, remaining); g > 0 {
			grants[i] = g
			remaining -= g
			granted = true
		}
	}
	if !granted {
		for i, st := range states {
			if !st.Done {
				grants[i] = max(1, min(st.PlanSize, runs[i].sessBudget-st.Measured))
			}
		}
	}
	return grants
}

// doneOutcomes returns the outcomes of tasks already finalized when a fatal
// error aborts the run, in spec order.
func doneOutcomes(outs []Outcome, runs []*taskRun) []Outcome {
	kept := make([]Outcome, 0, len(outs))
	for i, tr := range runs {
		if tr.finalized && outs[i].Task != nil {
			kept = append(kept, outs[i])
		}
	}
	return kept
}
