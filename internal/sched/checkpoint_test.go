package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/snap"
	"repro/internal/transfer"
	"repro/internal/tuner"
)

// serializedCheckpoint pushes a checkpoint through the snap codec — encode,
// parse, decode, re-encode — so resume tests prove the serialized form, not
// the in-memory struct, carries the whole run.
func serializedCheckpoint(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	frame, err := snap.Encode("sched-checkpoint/v1", cp)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := snap.Read(frame)
	if err != nil || len(frames) != 1 {
		t.Fatalf("snap.Read: %v (%d frames)", err, len(frames))
	}
	var got Checkpoint
	if err := frames[0].Unmarshal(&got); err != nil {
		t.Fatal(err)
	}
	again, err := snap.Encode("sched-checkpoint/v1", &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Fatalf("checkpoint encode→decode→encode not byte-identical")
	}
	return &got
}

// runCollectingCheckpoints runs the scheduler with a checkpoint at every
// boundary, returning the outcomes and the captured checkpoints.
func runCollectingCheckpoints(t *testing.T, tn tuner.Tuner, seed int64, specs []Spec, opts Options) ([]Outcome, []*Checkpoint) {
	t.Helper()
	var cps []*Checkpoint
	opts.OnCheckpoint = func(cp *Checkpoint) { cps = append(cps, cp) }
	outs, err := Run(context.Background(), tn, schedBackend(t, seed), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return outs, cps
}

// TestCheckpointRestoreGridInvariance is the scheduler half of the tentpole
// contract: for every Workers x TaskConcurrency combination — spanning the
// sequential and the concurrent schedules — a run checkpointed at every boundary,
// killed, and resumed from any of those checkpoints (after a trip through
// the serialized form) finishes with outcomes bit-identical to the
// uninterrupted run.
func TestCheckpointRestoreGridInvariance(t *testing.T) {
	tasks := schedTasks(t)
	tn := tuner.GATuner{}
	var ref []Outcome
	for _, workers := range []int{1, 4, 8} {
		for _, conc := range []int{1, 2, 4} {
			outs, cps := runCollectingCheckpoints(t, tn, 7,
				specsFor(tasks, 40, 11, workers, nil), Options{TaskConcurrency: conc})
			if ref == nil {
				ref = outs
			}
			if !sameOutcomes(ref, outs) {
				t.Fatalf("checkpointed run differs at workers=%d conc=%d", workers, conc)
			}
			if len(cps) < 2 {
				t.Fatalf("workers=%d conc=%d: only %d checkpoints captured", workers, conc, len(cps))
			}
			final := cps[len(cps)-1]
			for _, tc := range final.Tasks {
				if tc.Outcome == nil {
					t.Fatalf("final checkpoint leaves task %s unfinalized", tc.Name)
				}
			}
			for k, cp := range cps {
				// A new process: fresh checkpoint bytes, same flags.
				rOpts := Options{TaskConcurrency: conc, Resume: serializedCheckpoint(t, cp)}
				got, err := Run(context.Background(), tn, schedBackend(t, 7),
					specsFor(tasks, 40, 11, workers, nil), rOpts)
				if err != nil {
					t.Fatalf("workers=%d conc=%d checkpoint %d: resume: %v", workers, conc, k, err)
				}
				if !sameOutcomes(ref, got) {
					t.Fatalf("workers=%d conc=%d checkpoint %d: resumed outcomes differ", workers, conc, k)
				}
			}
		}
	}
}

// TestCheckpointRestoreTransferChain covers the boundary-snapshotted
// transfer views: a warm-started model-based run is resumed from a mid-run
// checkpoint into fresh (empty) histories, which resume must repopulate so
// the continuation's warm starts — and therefore its samples — stay
// bit-identical. Both the sequential policy's live chain and the
// concurrent round snapshots are exercised.
func TestCheckpointRestoreTransferChain(t *testing.T) {
	tasks := schedTasks(t)
	tn := tuner.NewAutoTVM()
	for _, conc := range []int{1, 2} {
		ref, cps := runCollectingCheckpoints(t, tn, 13,
			specsFor(tasks, 32, 17, 2, transfer.NewHistory()), Options{TaskConcurrency: conc})
		if len(cps) < 3 {
			t.Fatalf("conc=%d: only %d checkpoints captured", conc, len(cps))
		}
		// Middle checkpoints carry both finalized outcomes and live
		// sessions at some point; resume from each one.
		for k, cp := range cps {
			got, err := Run(context.Background(), tn, schedBackend(t, 13),
				specsFor(tasks, 32, 17, 2, transfer.NewHistory()),
				Options{TaskConcurrency: conc, Resume: serializedCheckpoint(t, cp)})
			if err != nil {
				t.Fatalf("conc=%d checkpoint %d: resume: %v", conc, k, err)
			}
			if !sameOutcomes(ref, got) {
				t.Fatalf("conc=%d checkpoint %d: resumed outcomes differ", conc, k)
			}
		}
	}
}

// TestCheckpointRestoreAdaptivePolicy pins the budget-policy state: the
// adaptive policy allocates from previous-boundary measured counts and
// bests, which ride in the checkpoint, so a resumed run re-plays the same
// allocation sequence.
func TestCheckpointRestoreAdaptivePolicy(t *testing.T) {
	tasks := schedTasks(t)
	tn := tuner.RandomTuner{}
	ref, cps := runCollectingCheckpoints(t, tn, 19,
		specsFor(tasks, 40, 23, 4, transfer.NewHistory()),
		Options{TaskConcurrency: 2, Policy: AdaptivePolicy{}})
	if len(cps) < 3 {
		t.Fatalf("only %d checkpoints captured", len(cps))
	}
	for k, cp := range cps {
		got, err := Run(context.Background(), tn, schedBackend(t, 19),
			specsFor(tasks, 40, 23, 4, transfer.NewHistory()),
			Options{TaskConcurrency: 2, Policy: AdaptivePolicy{}, Resume: serializedCheckpoint(t, cp)})
		if err != nil {
			t.Fatalf("checkpoint %d: resume: %v", k, err)
		}
		if !sameOutcomes(ref, got) {
			t.Fatalf("checkpoint %d: resumed outcomes differ", k)
		}
	}
}

// TestCheckpointEvery rate-limits capture by new measurements.
func TestCheckpointEvery(t *testing.T) {
	tasks := schedTasks(t)
	every, all := 0, 0
	for i, ce := range []int{0, 24} {
		var n int
		_, err := Run(context.Background(), tuner.RandomTuner{}, schedBackend(t, 2),
			specsFor(tasks, 24, 9, 1, nil), Options{
				TaskConcurrency: 2, CheckpointEvery: ce,
				OnCheckpoint: func(cp *Checkpoint) { n++ },
			})
		if err != nil {
			t.Fatal(err)
		}
		if n < 1 {
			t.Fatalf("CheckpointEvery=%d captured no checkpoints", ce)
		}
		if i == 0 {
			all = n
		} else {
			every = n
		}
	}
	if every >= all {
		t.Fatalf("CheckpointEvery=24 captured %d checkpoints, every-boundary captured %d", every, all)
	}
}

// TestCheckpointDeadlineOutcome: a task finalized by a per-task deadline
// keeps its non-fatal error across the checkpoint, including the
// context.DeadlineExceeded identity.
func TestCheckpointDeadlineOutcome(t *testing.T) {
	task := schedTasks(t)[0]
	out := Outcome{Result: tuner.Result{TunerName: "x", Found: true}}
	out.Result.Best.Config = task.Space.FromFlat(0)
	out.Result.Best.GFLOPS = 1.5
	out.Result.Best.Valid = true
	out.Err = context.DeadlineExceeded
	st := outcomeState(out)
	if st.Err == "" {
		t.Fatal("deadline error not captured")
	}
	tc := TaskCheckpoint{Outcome: &st}
	back, err := tc.restoreOutcome(task)
	if err != nil {
		t.Fatal(err)
	}
	if back.Err == nil || back.Err.Error() != context.DeadlineExceeded.Error() {
		t.Fatalf("restored error %v", back.Err)
	}
	// Restored deadline errors must stay non-fatal under the driver's own
	// classification.
	if fatal(context.Background(), back.Result, back.Err) {
		t.Fatalf("restored deadline error classified as fatal")
	}
}

// TestCheckpointResumeValidation pins the loud-failure modes of resume.
func TestCheckpointResumeValidation(t *testing.T) {
	tasks := schedTasks(t)
	tn := tuner.RandomTuner{}
	specs := specsFor(tasks, 24, 3, 1, nil)
	_, cps := runCollectingCheckpoints(t, tn, 2, specs, Options{TaskConcurrency: 2})
	// The first checkpoint precedes every task's first step; take one in
	// which task 0 has already stepped, so its session must be present.
	var cp *Checkpoint
	for _, c := range cps {
		if c.Tasks[0].Rounds > 0 && c.Tasks[0].Session != nil {
			cp = c
			break
		}
	}
	if cp == nil {
		t.Fatal("no checkpoint with a stepped live task 0")
	}

	fails := []struct {
		name string
		mut  func(c *Checkpoint)
		opts Options
	}{
		{"wrong driver", func(c *Checkpoint) {}, Options{TaskConcurrency: 1}},
		{"wrong version", func(c *Checkpoint) { c.Version = 99 }, Options{TaskConcurrency: 2}},
		{"task list mismatch", func(c *Checkpoint) { c.Tasks = c.Tasks[:1] }, Options{TaskConcurrency: 2}},
		{"task name mismatch", func(c *Checkpoint) { c.Tasks[0].Name = "other" }, Options{TaskConcurrency: 2}},
		{"missing session", func(c *Checkpoint) { c.Tasks[0].Session = nil }, Options{TaskConcurrency: 2}},
		{"published unfinalized", func(c *Checkpoint) { c.Published = []int{0} }, Options{TaskConcurrency: 2}},
	}
	for _, f := range fails {
		bad := serializedCheckpoint(t, cp)
		f.mut(bad)
		o := f.opts
		o.Resume = bad
		if _, err := Run(context.Background(), tn, schedBackend(t, 2), specs, o); err == nil {
			t.Errorf("%s: resume accepted a bad checkpoint", f.name)
		} else if !strings.Contains(err.Error(), "resume") && !strings.Contains(err.Error(), "restore") {
			t.Errorf("%s: undescriptive error %v", f.name, err)
		}
	}
}

// TestCheckpointCallbacksAfterResume: callbacks fire only for
// post-checkpoint events, and restored outcomes are returned without being
// re-fired through OnTaskDone.
func TestCheckpointCallbacksAfterResume(t *testing.T) {
	tasks := schedTasks(t)
	tn := tuner.GATuner{}
	specs := specsFor(tasks, 24, 9, 1, nil)
	_, cps := runCollectingCheckpoints(t, tn, 2, specs, Options{})
	// Pick the first checkpoint with at least one finalized task but not all.
	var mid *Checkpoint
	for _, cp := range cps {
		n := 0
		for _, tc := range cp.Tasks {
			if tc.Outcome != nil {
				n++
			}
		}
		if n > 0 && n < len(tasks) {
			mid = cp
			break
		}
	}
	if mid == nil {
		t.Skip("no mid-run checkpoint with a finalized prefix")
	}
	doneBefore := 0
	for _, tc := range mid.Tasks {
		if tc.Outcome != nil {
			doneBefore++
		}
	}
	var dones []int
	outs, err := Run(context.Background(), tn, schedBackend(t, 2), specs, Options{
		Resume:     serializedCheckpoint(t, mid),
		OnTaskDone: func(o Outcome) { dones = append(dones, o.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(tasks) {
		t.Fatalf("%d outcomes, want %d", len(outs), len(tasks))
	}
	if len(dones) != len(tasks)-doneBefore {
		t.Fatalf("OnTaskDone fired %d times for %d post-checkpoint completions", len(dones), len(tasks)-doneBefore)
	}
	for _, idx := range dones {
		if idx < doneBefore {
			t.Fatalf("OnTaskDone re-fired for restored task %d", idx)
		}
	}
}

// TestCheckpointElapsedAccumulates: reporting bookkeeping (rounds, elapsed)
// survives the checkpoint instead of resetting.
func TestCheckpointElapsedAccumulates(t *testing.T) {
	tc := TaskCheckpoint{Rounds: 3, ElapsedNS: int64(2 * time.Second),
		Outcome: &OutcomeState{TunerName: "x"}}
	out, err := tc.restoreOutcome(schedTasks(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	if out.Rounds != 3 || out.Elapsed != 2*time.Second {
		t.Fatalf("restored bookkeeping rounds=%d elapsed=%v", out.Rounds, out.Elapsed)
	}
}

// TestCheckpointResumeSequentialFixture pins on-disk compatibility with
// checkpoints written by older code, for transfer-on runs over schedTasks
// (budget per task, plan 8, run seed 17, backend seed 13, task-concurrency
// 1). Each fixture holds every checkpoint its run wrote plus the run's
// outcomes, and each checkpoint must still resume to outcomes identical to
// that reference:
//   - sequential_v1.snap: autotvm, budget 32, written by the dedicated
//     sequential driver that predates the sequential policy;
//   - bted_bao_v1.snap: bted+bao, budget 20, written while BAO kept its own
//     copy of the samples, parameters and full best-so-far trace in every
//     session snapshot.
func TestCheckpointResumeSequentialFixture(t *testing.T) {
	for _, fx := range []struct {
		file   string
		tuner  tuner.Tuner
		budget int
	}{
		{"sequential_v1.snap", tuner.NewAutoTVM(), 32},
		{"bted_bao_v1.snap", tuner.NewBTEDBAO(), 20},
	} {
		t.Run(fx.file, func(t *testing.T) {
			frames, err := snap.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			tasks := schedTasks(t)
			var want []OutcomeState
			var cps []*Checkpoint
			for _, f := range frames {
				switch f.Kind {
				case "sched-outcomes/v1":
					if err := f.Unmarshal(&want); err != nil {
						t.Fatal(err)
					}
				case "sched-checkpoint/v1":
					var cp Checkpoint
					if err := f.Unmarshal(&cp); err != nil {
						t.Fatal(err)
					}
					cps = append(cps, &cp)
				}
			}
			if len(want) != len(tasks) || len(cps) < 3 {
				t.Fatalf("fixture holds %d outcomes and %d checkpoints", len(want), len(cps))
			}
			for k, cp := range cps {
				if cp.Driver != DriverSequential {
					t.Fatalf("checkpoint %d: driver %q", k, cp.Driver)
				}
				got, err := Run(context.Background(), fx.tuner, schedBackend(t, 13),
					specsFor(tasks, fx.budget, 17, 1, transfer.NewHistory()), Options{Resume: cp})
				if err != nil {
					t.Fatalf("checkpoint %d: resume: %v", k, err)
				}
				if len(got) != len(want) {
					t.Fatalf("checkpoint %d: %d outcomes, want %d", k, len(got), len(want))
				}
				for i, o := range got {
					a, _ := json.Marshal(outcomeState(o))
					b, _ := json.Marshal(want[i])
					if !bytes.Equal(a, b) {
						t.Fatalf("checkpoint %d: task %d outcome differs from the uninterrupted run", k, i)
					}
				}
			}
		})
	}
}
