package tuner

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/backend"
)

// Session is a resumable tuning run: a tuner's batch loop cut at its
// batch-fold boundaries so an external driver (Tune, or the graph
// scheduler in internal/sched) can interleave many runs and snapshot them.
// A session is single-goroutine: callers must not invoke its methods
// concurrently, though different sessions may be driven from different
// goroutines.
//
// The context is passed to every Step and never stored, so each call may
// carry a different ctx; the first Step that observes a done ctx ends the
// run, and the samples recorded so far are a bit-identical prefix of the
// uncancelled run.
type Session struct {
	name      string
	s         *session
	step      func(ctx context.Context) bool // tuner search state; true when finished
	extra     func() any                     // tuner-specific snapshot state; nil = none
	done      bool
	finalized bool
	res       Result
	err       error
}

// newStepSession wraps the shared measurement session and a tuner's step
// closure. The closure owns all search state (RNG, sweep position, model
// artifacts) and returns true when the run is finished; cancellation state
// lives in s and is latched there. st is the snapshot the session was
// restored from (nil when fresh); extra captures the tuner-specific state
// for Snapshot.
func newStepSession(name string, s *session, st *SessionState, step func(ctx context.Context) bool, extra func() any) *Session {
	return &Session{name: name, s: s, step: step, extra: extra, done: st != nil && st.Base.StepDone}
}

// Tune opens a fresh session of t and drives it to completion: the run
// stops when the budget or the space is exhausted, early stopping trips, or
// ctx is done — whichever comes first — and always returns the Result of
// the work performed. The error is nil on normal completion, wraps
// ctx.Err() on cancellation or deadline expiry (Result then holds the
// prefix measured so far), and wraps ErrNoValidConfig when a completed
// search never saw a valid deployment.
func Tune(ctx context.Context, t Tuner, task *Task, b backend.Backend, opts Options) (Result, error) {
	sess, err := t.Open(task, b, opts, nil)
	if err != nil {
		return Result{}, err
	}
	return Drive(ctx, sess)
}

// Drive advances a session to completion and finalizes it.
func Drive(ctx context.Context, s *Session) (Result, error) {
	for {
		done, err := s.Step(ctx)
		if done || err != nil {
			break
		}
	}
	return s.Result()
}

// Step advances the run by one planned batch (for the sequential BAO
// stage: one measurement iteration). It reports done when the run has
// finished — budget or space exhausted, early stopping tripped, or ctx
// observed done — after which further calls are no-ops. err is non-nil
// only when the run stopped because a context was cancelled or expired;
// it is the latched ctx.Err() (Result wraps it with run detail).
func (ts *Session) Step(ctx context.Context) (bool, error) {
	if ts.done || ts.finalized {
		return true, ts.s.err
	}
	if ts.step(ctx) {
		ts.done = true
	}
	return ts.done, ts.s.err
}

// Result finalizes the run — feeding the transfer history exactly once —
// and returns the run summary, with the same error contract as Tune. It is
// idempotent; a finalized session cannot be stepped further.
func (ts *Session) Result() (Result, error) {
	if !ts.finalized {
		ts.finalized = true
		ts.done = true
		ts.res, ts.err = ts.s.result(ts.name)
	}
	return ts.res, ts.err
}

// Measured returns how many measurements the run has recorded so far (the
// scheduler's budget-accounting view).
func (ts *Session) Measured() int { return len(ts.s.samples) }

// BestGFLOPS returns the best valid throughput observed so far (including
// resumed samples); ok is false while no valid measurement exists.
func (ts *Session) BestGFLOPS() (gflops float64, ok bool) {
	return ts.s.bestG, ts.s.bestG > 0
}

// Snapshot returns the complete session state at the current Step
// boundary; Tuner.Open restores it. Callers must not snapshot concurrently
// with Step; a finalized session refuses (its Result already fed the
// transfer history, so a restored continuation would double-publish).
func (ts *Session) Snapshot() (SessionState, error) {
	if ts.finalized {
		return SessionState{}, fmt.Errorf("tuner: %s on task %s: cannot snapshot a finalized session", ts.name, ts.s.task.Name)
	}
	st := SessionState{
		Version: SessionStateVersion,
		Tuner:   ts.name,
		Task:    ts.s.task.Name,
		Base:    ts.s.baseState(),
	}
	st.Base.StepDone = ts.done
	if ts.extra != nil {
		raw, err := json.Marshal(ts.extra())
		if err != nil {
			return SessionState{}, fmt.Errorf("tuner: %s on task %s: snapshot: %w", ts.name, ts.s.task.Name, err)
		}
		st.Extra = raw
	}
	return st, nil
}

// Compile-time proof that every tuner opens stepwise, snapshottable
// sessions.
var (
	_ Tuner = RandomTuner{}
	_ Tuner = GridTuner{}
	_ Tuner = GATuner{}
	_ Tuner = (*ModelTuner)(nil)
	_ Tuner = (*ChameleonTuner)(nil)
	_ Tuner = (*AdvancedTuner)(nil)
)
