package job

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/backend"
)

// drain consumes a subscription until the stream completes, returning every
// wire line it saw.
func drain(t *testing.T, sub *Sub) [][]byte {
	t.Helper()
	var all [][]byte
	for {
		lines, more, err := sub.Next(context.Background())
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		all = append(all, lines...)
		if !more {
			return all
		}
	}
}

func mustStatus(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	st, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestManagerCrashResumeCheckpoint kills the daemon mid-job and restarts
// it: a managed run is interrupted by Manager.Close once its first
// checkpoint frame has landed (the graceful-shutdown path — no terminal
// frame), a second manager over the same store recovers it, and the
// finished job's record log must be byte-identical to an uninterrupted
// cmd/tune-equivalent run of the same spec and seed.
func TestManagerCrashResumeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(2033)
	spec.Budget = 48 // long enough that shutdown lands mid-run

	// Reference: the same Spec driven straight through the runner.
	refLog := filepath.Join(dir, "ref.jsonl")
	ref, err := Run(context.Background(), spec, RunOptions{LogPath: refLog})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	store, err := OpenStore(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	const id = "crash-1"
	mgr1 := NewManagerWith(store, ManagerOptions{Concurrency: 1})
	if _, err := mgr1.Submit(Submit{ID: id, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	sub, err := mgr1.Subscribe(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for a resumable state: at least one checkpoint frame on disk and
	// a few records streamed, then pull the plug.
	seen := 0
	for {
		recs, more, err := sub.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		seen += len(recs)
		if !more {
			t.Fatalf("job finished (after %d records) before the shutdown fired; raise the spec budget", seen)
		}
		if cp, _, err := LoadSnap(store.SnapPath(id)); err == nil && cp != nil && seen >= spec.PlanSize {
			break
		}
	}
	sub.Close()
	mgr1.Close()

	// Graceful shutdown leaves no terminal frame — the on-disk state says
	// "unfinished", which is exactly what restart recovery keys on.
	if st := mustStatus(t, mgr1, id); st.State != StateQueued {
		t.Fatalf("state after shutdown = %s, want queued (resumable)", st.State)
	}
	if _, res, err := LoadSnap(store.SnapPath(id)); res != nil || err != nil {
		t.Fatalf("shutdown wrote a terminal frame: %+v, %v", res, err)
	}
	cp, _, err := LoadSnap(store.SnapPath(id))
	if err != nil || cp == nil {
		t.Fatalf("no checkpoint on disk after shutdown: %v", err)
	}

	// "Restart the daemon": fresh store handle, fresh manager, recover.
	store2, err := OpenStore(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManagerWith(store2, ManagerOptions{Concurrency: 1})
	if err := mgr2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if st := mustStatus(t, mgr2, id); !st.Resumed {
		t.Fatalf("recovered job not marked resumed: %+v", st)
	}

	// A post-restart subscriber replays from the start and then follows the
	// resumed run live; the full stream must match the reference count.
	sub2, err := mgr2.Subscribe(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	streamed := drain(t, sub2)
	sub2.Close()
	if len(streamed) != ref.Records {
		t.Errorf("replayed stream has %d records, reference run %d", len(streamed), ref.Records)
	}

	st := mustStatus(t, mgr2, id)
	if st.State != StateDone || st.Result == nil || st.Result.State != StateDone {
		t.Fatalf("resumed job ended %+v", st)
	}
	if st.Result.LatencyMS != ref.Deployment.LatencyMS || st.Result.TotalMeasurements != ref.Deployment.TotalMeasurements {
		t.Errorf("resumed result %+v differs from reference deployment (latency %v, measurements %d)",
			st.Result, ref.Deployment.LatencyMS, ref.Deployment.TotalMeasurements)
	}
	want := readFileBytes(t, refLog)
	got := readFileBytes(t, store2.LogPath(id))
	if !bytes.Equal(want, got) {
		t.Fatalf("served record log differs from uninterrupted run: %d vs %d bytes", len(want), len(got))
	}
}

// TestManagerSharedCacheSeededByteIdentical: the fleet-wide measurement
// memo is observationally invisible. Two jobs of one seeded spec run one
// after the other through a manager with a shared cache; the second is
// served from the first's measurements, yet both record logs must be
// byte-identical to each other and to a runner-level run without the cache.
func TestManagerSharedCacheSeededByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(2039)

	refLog := filepath.Join(dir, "ref.jsonl")
	if _, err := Run(context.Background(), spec, RunOptions{LogPath: refLog}); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	store, err := OpenStore(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManagerWith(store, ManagerOptions{Concurrency: 1, Shared: backend.NewSharedCache(0)})
	defer mgr.Close()
	ids := []string{"cold", "warm"}
	for _, id := range ids {
		if _, err := mgr.Submit(Submit{ID: id, Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	want := readFileBytes(t, refLog)
	for _, id := range ids {
		sub, err := mgr.Subscribe(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, sub)
		sub.Close()
		if st := mustStatus(t, mgr, id); st.State != StateDone {
			t.Fatalf("job %s ended %s, want done", id, st.State)
		}
		if got := readFileBytes(t, store.LogPath(id)); !bytes.Equal(want, got) {
			t.Fatalf("job %s record log differs from the uncached run: %d vs %d bytes", id, len(got), len(want))
		}
	}
	stats, ok := mgr.SharedCacheStats()
	if !ok || stats.Hits == 0 {
		t.Fatalf("shared cache stats %+v (ok=%v), want hits > 0", stats, ok)
	}
}

// TestManagerFIFOAndCancel exercises the queue: with concurrency 1 the
// second and third submissions wait, a queued job cancels instantly with a
// terminal frame, and a running job cancels at its next boundary.
func TestManagerFIFOAndCancel(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManagerWith(store, ManagerOptions{Concurrency: 1})
	defer mgr.Close()

	slow := tinySpec(2034)
	slow.Budget = 48
	if _, err := mgr.Submit(Submit{ID: "a", Spec: slow}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Submit(Submit{ID: "b", Spec: tinySpec(2035)}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Submit(Submit{ID: "c", Spec: tinySpec(2036)}); err != nil {
		t.Fatal(err)
	}
	if st := mustStatus(t, mgr, "b"); st.State != StateQueued {
		t.Fatalf("job b = %s, want queued behind a", st.State)
	}

	// Cancelling a queued job is immediate and terminal.
	if ok, err := mgr.Cancel("c"); err != nil || !ok {
		t.Fatalf("Cancel(c) = %v, %v", ok, err)
	}
	if st := mustStatus(t, mgr, "c"); st.State != StateCanceled {
		t.Fatalf("job c = %s, want canceled", st.State)
	}
	if _, res, err := LoadSnap(store.SnapPath("c")); err != nil || res == nil || res.State != StateCanceled {
		t.Fatalf("canceled queued job has no terminal frame: %+v, %v", res, err)
	}
	if ok, err := mgr.Cancel("c"); err != nil || ok {
		t.Fatalf("second Cancel(c) = %v, %v; want false (already terminal)", ok, err)
	}
	if _, err := mgr.Cancel("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel(ghost) = %v, want ErrNotFound", err)
	}

	// Cancelling the running job interrupts it at the next batch boundary
	// and unblocks the queue.
	if ok, err := mgr.Cancel("a"); err != nil || !ok {
		t.Fatalf("Cancel(a) = %v, %v", ok, err)
	}
	subA, err := mgr.Subscribe("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, subA)
	subA.Close()
	if st := mustStatus(t, mgr, "a"); st.State != StateCanceled || st.Result == nil {
		t.Fatalf("job a ended %+v, want canceled with terminal frame", st)
	}

	subB, err := mgr.Subscribe("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, subB)
	subB.Close()
	if st := mustStatus(t, mgr, "b"); st.State != StateDone {
		t.Fatalf("job b ended %s, want done", st.State)
	}
	if len(got) == 0 {
		t.Fatal("job b streamed no records")
	}

	order := mgr.List()
	if len(order) != 3 || order[0].ID != "a" || order[1].ID != "b" || order[2].ID != "c" {
		t.Fatalf("List() order %v, want submission order a, b, c", order)
	}
}

func TestManagerSubmitValidation(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManagerWith(store, ManagerOptions{Concurrency: 1})

	if _, err := mgr.Submit(Submit{Spec: Spec{Model: "nope"}}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad spec = %v, want ErrBadSpec", err)
	}
	if _, err := mgr.Submit(Submit{ID: "../x", Spec: tinySpec(1)}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad ID = %v, want ErrBadSpec", err)
	}

	// The default ID is the deterministic SpecID, and the derived seed is
	// resolved at admission so the stored spec replays identically.
	spec := tinySpec(2037)
	spec.Budget = 48
	st, err := mgr.Submit(Submit{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != SpecID(spec) {
		t.Errorf("default ID %s, want SpecID %s", st.ID, SpecID(spec))
	}
	if st.Seed != 2037 {
		t.Errorf("explicit seed not preserved: %d", st.Seed)
	}
	if _, err := mgr.Submit(Submit{Spec: spec}); !errors.Is(err, ErrExists) {
		t.Errorf("identical resubmission = %v, want ErrExists", err)
	}

	derived := tinySpec(0)
	derived.Seed = 0
	st2, err := mgr.Submit(Submit{ID: "derived-seed", Spec: derived})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Seed != DeriveSeed("derived-seed") {
		t.Errorf("seed %d, want DeriveSeed(%q) = %d", st2.Seed, "derived-seed", DeriveSeed("derived-seed"))
	}

	mgr.Close()
	if _, err := mgr.Submit(Submit{ID: "late", Spec: tinySpec(3)}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestManagerRecoverClassifiesSnap pins how recovery reads a job's snap
// stream: an empty job.snap (a crash before the first frame) recovers as a
// fresh run that completes, and a record log where the stream belongs fails
// recovery loudly instead of silently restarting the job.
func TestManagerRecoverClassifiesSnap(t *testing.T) {
	for _, tc := range []struct {
		name, data string
		wantErr    bool
	}{
		{"empty", "", false},
		{"record-log", "{\"task\":\"t\"}\n", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Create("j", tinySpec(2040)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(store.SnapPath("j"), []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			mgr := NewManagerWith(store, ManagerOptions{Concurrency: 1})
			defer mgr.Close()
			err = mgr.Recover()
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "not a checkpoint") {
					t.Fatalf("Recover = %v, want a loud classification error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			sub, err := mgr.Subscribe("j", 0)
			if err != nil {
				t.Fatal(err)
			}
			recs := drain(t, sub)
			sub.Close()
			if st := mustStatus(t, mgr, "j"); st.State != StateDone || st.Records != len(recs) || len(recs) == 0 {
				t.Fatalf("recovered job = %+v after %d streamed records", st, len(recs))
			}
		})
	}
}

// TestManagerRecoverTerminalReplay finishes a job, restarts the manager,
// and checks that the terminal job recovers with its result intact and that
// a late subscriber still replays the full stream (lazy-loaded from the
// store: the previous daemon's in-memory tail is gone).
func TestManagerRecoverTerminalReplay(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := NewManagerWith(store, ManagerOptions{Concurrency: 1})
	st, err := mgr1.Submit(Submit{ID: "done-1", Spec: tinySpec(2038)})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := mgr1.Subscribe(st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	live := drain(t, sub)
	sub.Close()
	mgr1.Close()
	if len(live) == 0 {
		t.Fatal("no records streamed")
	}

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManagerWith(store2, ManagerOptions{Concurrency: 1})
	if err := mgr2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	st2 := mustStatus(t, mgr2, "done-1")
	if st2.State != StateDone || st2.Result == nil {
		t.Fatalf("recovered terminal job = %+v", st2)
	}
	late, err := mgr2.Subscribe("done-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	replayed := drain(t, late)
	late.Close()
	if len(replayed) != len(live) {
		t.Fatalf("late replay has %d records, live stream had %d", len(replayed), len(live))
	}
	// Offsets past the end complete immediately: a reconnecting client that
	// was fully caught up gets a clean end-of-stream, not a hang.
	tail, err := mgr2.Subscribe("done-1", len(live)+100)
	if err != nil {
		t.Fatal(err)
	}
	if recs := drain(t, tail); len(recs) != 0 {
		t.Errorf("past-end subscription replayed %d records", len(recs))
	}
	tail.Close()
	if _, err := mgr2.Subscribe("ghost", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Subscribe(ghost) = %v, want ErrNotFound", err)
	}
}
