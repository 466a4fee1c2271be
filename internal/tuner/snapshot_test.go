package tuner

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/backend"
	"repro/internal/snap"
	"repro/internal/tensor"
	"repro/internal/transfer"
)

// roundTripState pushes a snapshot through the snap codec — encode, parse,
// decode — so the continuation proves the serialized form, not just the
// in-memory struct, carries the whole session.
func roundTripState(t *testing.T, st SessionState) SessionState {
	t.Helper()
	frame, err := snap.Encode("tuner-session/v1", st)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := snap.Read(frame)
	if err != nil || len(frames) != 1 {
		t.Fatalf("snap.Read: %v (%d frames)", err, len(frames))
	}
	var got SessionState
	if err := frames[0].Unmarshal(&got); err != nil {
		t.Fatal(err)
	}
	// Re-encoding the decoded state must reproduce the frame bytes: the
	// codec is deterministic, so checkpoint files are replayable.
	again, err := snap.Encode("tuner-session/v1", got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Fatalf("snapshot encode→decode→encode not byte-identical:\n%q\n%q", frame, again)
	}
	return got
}

// TestGoldenSnapshotRestoreContinue is the tentpole contract: for every
// tuner, snapshotting at *every* Step boundary, serializing through the
// snap codec, restoring against a freshly built task and backend, and
// driving to completion is bit-identical to the uninterrupted run.
func TestGoldenSnapshotRestoreContinue(t *testing.T) {
	for _, tn := range goldenTuners() {
		tn := tn
		t.Run(tn.Name(), func(t *testing.T) {
			t.Parallel()
			opts := quickOpts(48, 23)
			task := testTask(t)
			want, werr := Tune(context.Background(), tn, task, sim(3), opts)
			if werr != nil && !errors.Is(werr, ErrNoValidConfig) {
				t.Fatal(werr)
			}

			for cut := 0; ; cut++ {
				// Run the original up to the cut boundary.
				sess, err := tn.Open(task, sim(3), opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				doneAtCut := false
				for k := 0; k < cut; k++ {
					done, serr := sess.Step(context.Background())
					if serr != nil {
						t.Fatalf("cut %d step %d: %v", cut, k, serr)
					}
					if done {
						doneAtCut = true
						break
					}
				}
				st, err := sess.Snapshot()
				if err != nil {
					t.Fatalf("cut %d: snapshot: %v", cut, err)
				}
				st = roundTripState(t, st)

				// Restore against a freshly built task and backend: nothing
				// may hide in shared pointers.
				fresh := testTask(t)
				restored, err := tn.Open(fresh, sim(3), opts, &st)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				// A restored session's immediate snapshot is the same state.
				st2, err := restored.Snapshot()
				if err != nil {
					t.Fatalf("cut %d: re-snapshot: %v", cut, err)
				}
				a, _ := snap.Encode("tuner-session/v1", st)
				b, _ := snap.Encode("tuner-session/v1", st2)
				if !bytes.Equal(a, b) {
					t.Fatalf("cut %d: restored session snapshots differently:\n%q\n%q", cut, a, b)
				}

				got, gerr := Drive(context.Background(), restored)
				if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
					t.Fatalf("cut %d: error mismatch: uninterrupted=%v restored=%v", cut, werr, gerr)
				}
				if !sameResult(want, got) {
					t.Fatalf("cut %d: restored continuation differs: want n=%d best=%v, got n=%d best=%v",
						cut, want.Measurements, want.Best.GFLOPS, got.Measurements, got.Best.GFLOPS)
				}
				if doneAtCut {
					break // every boundary of the run has been covered
				}
			}
		})
	}
}

// TestGoldenSnapshotTransferChain snapshots the warm-started second task
// mid-run and restores it against a reconstructed transfer history: the
// continuation must still be bit-identical, proving boundary-snapshotted
// transfer views can be rebuilt from published results.
func TestGoldenSnapshotTransferChain(t *testing.T) {
	tn := NewAutoTVM()
	mkTasks := func() (*Task, *Task) {
		return goldenTask(t, "snap.a", tensor.Conv2D(1, 32, 28, 28, 64, 3, 1, 1)),
			goldenTask(t, "snap.b", tensor.Conv2D(1, 64, 14, 14, 128, 3, 1, 1))
	}
	ta, tb := mkTasks()
	baseOpts := quickOpts(48, 37)

	// Uninterrupted chain.
	h := transfer.NewHistory()
	opts := baseOpts
	opts.Transfer = h
	ra, err := Tune(context.Background(), tn, ta, sim(13), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Tune(context.Background(), tn, tb, sim(13), opts)
	if err != nil {
		t.Fatal(err)
	}

	// Chain again, snapshotting task b after its first two steps.
	h2 := transfer.NewHistory()
	opts2 := baseOpts
	opts2.Transfer = h2
	if _, err := Tune(context.Background(), tn, ta, sim(13), opts2); err != nil {
		t.Fatal(err)
	}
	sess, err := tn.Open(tb, sim(13), opts2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if done, serr := sess.Step(context.Background()); serr != nil || done {
			t.Fatalf("step %d: done=%v err=%v", k, done, serr)
		}
	}
	st, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st = roundTripState(t, st)

	// Restore in a "new process": fresh tasks, fresh backend, and a
	// transfer history rebuilt by re-publishing task a's result.
	fa, fb := mkTasks()
	h3 := transfer.NewHistory()
	h3.Add(fa.Name, fa.Workload.Op, ra.Samples)
	opts3 := baseOpts
	opts3.Transfer = h3
	restored, err := tn.Open(fb, sim(13), opts3, &st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drive(context.Background(), restored)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(want, got) {
		t.Error("restored warm-started continuation differs from uninterrupted chain")
	}
}

// TestSnapshotErrors pins the failure modes: finalized sessions refuse to
// snapshot, mismatched restores fail loudly, and an unseeded backend is
// refused by both a fresh and a restoring Open.
func TestSnapshotErrors(t *testing.T) {
	task := testTask(t)
	opts := quickOpts(16, 5)
	tn := RandomTuner{}
	sess, err := tn.Open(task, sim(3), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(context.Background(), sess); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Snapshot(); err == nil {
		t.Error("finalized session allowed Snapshot")
	}

	if _, err := (GridTuner{}).Open(task, sim(3), opts, &st); err == nil {
		t.Error("restore accepted a snapshot from a different tuner")
	}
	bad := st
	bad.Task = "someone-else"
	if _, err := tn.Open(task, sim(3), opts, &bad); err == nil {
		t.Error("restore accepted a snapshot from a different task")
	}
	bad = st
	bad.Base.Seed++
	if _, err := tn.Open(task, sim(3), opts, &bad); err == nil {
		t.Error("restore accepted mismatched seeds")
	}
	bad = st
	bad.Version = 99
	if _, err := tn.Open(task, sim(3), opts, &bad); err == nil {
		t.Error("restore accepted an unknown snapshot version")
	}

	// Tuning requires a seeded backend, fresh or restored.
	if _, err := tn.Open(task, unseeded{sim(3)}, opts, nil); err == nil {
		t.Error("open accepted an unseeded backend")
	}
	if _, err := tn.Open(task, unseeded{sim(3)}, opts, &st); err == nil {
		t.Error("restore accepted an unseeded backend")
	}
}

// unseeded is a backend whose noise comes from one shared stream only.
type unseeded struct{ backend.Backend }

func (unseeded) Seeded() bool { return false }
