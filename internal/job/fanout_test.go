package job

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestFanoutSlowSubscribersNeverBlock is the zero-copy fan-out contract
// under the race detector: 64 subscribers attach to one running job — half
// drain concurrently, half never call Next at all — and the job must still
// run to completion (a stalled reader stalls nobody: the tail hands out
// cursor views, it never waits on a consumer). Every drained stream, and a
// post-hoc replay through the stalled subscriptions, must be byte-identical
// to the record log the runner wrote — same bytes, encoded exactly once.
func TestFanoutSlowSubscribersNeverBlock(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManagerWith(store, ManagerOptions{Concurrency: 1})
	defer mgr.Close()

	spec := tinySpec(3200)
	spec.Budget = 48 // enough records that subscribers attach mid-stream
	const id = "fan-1"
	if _, err := mgr.Submit(Submit{ID: id, Spec: spec}); err != nil {
		t.Fatal(err)
	}

	const subscribers = 64
	drained := make([][]byte, subscribers/2)
	var stalled []*Sub
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		sub, err := mgr.Subscribe(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			// Never drained while the job runs: holds its subscription open
			// so the tail keeps notifying it, reads only after completion.
			stalled = append(stalled, sub)
			continue
		}
		wg.Add(1)
		go func(slot int, sub *Sub) {
			defer wg.Done()
			defer sub.Close()
			var buf bytes.Buffer
			for {
				lines, more, err := sub.Next(context.Background())
				if err != nil {
					t.Errorf("subscriber %d: %v", slot, err)
					return
				}
				for _, line := range lines {
					buf.Write(line)
				}
				if !more {
					drained[slot] = buf.Bytes()
					return
				}
			}
		}(i/2, sub)
	}

	// The job finishing at all is the non-blocking claim: 32 subscribers sit
	// on full notification channels the whole run and the runner's OnRecordLine
	// path must not care.
	wg.Wait()
	st := mustStatus(t, mgr, id)
	if st.State != StateDone {
		t.Fatalf("job state %s, want done", st.State)
	}

	logBytes, err := os.ReadFile(store.LogPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if len(logBytes) == 0 {
		t.Fatal("empty record log")
	}
	for i, got := range drained {
		if !bytes.Equal(got, logBytes) {
			t.Fatalf("drained subscriber %d diverged from the record log (%d vs %d bytes)", i, len(got), len(logBytes))
		}
	}
	// The stalled subscribers replay now — late reads see the identical
	// stream, and Snapshot agrees with Next.
	for i, sub := range stalled {
		if got := bytes.Join(sub.Snapshot(), nil); !bytes.Equal(got, logBytes) {
			t.Fatalf("stalled subscriber %d snapshot diverged from the record log", i)
		}
		if got := bytes.Join(drain(t, sub), nil); !bytes.Equal(got, logBytes) {
			t.Fatalf("stalled subscriber %d replay diverged from the record log", i)
		}
		sub.Close()
	}
}
