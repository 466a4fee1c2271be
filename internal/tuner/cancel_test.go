package tuner

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/active"
	"repro/internal/backend"
	"repro/internal/hwsim"
	"repro/internal/space"
	"repro/internal/tensor"
)

// TestCancellationPrefixDeterminism is the cancellation half of the engine
// contract: for every tuner, cancelling mid-run via the observer must stop
// the run with exactly the samples recorded so far, and that prefix must be
// bit-identical to the uncancelled run's samples — for any worker count.
func TestCancellationPrefixDeterminism(t *testing.T) {
	task := testTask(t)
	const cancelAt = 23 // deliberately not a batch boundary
	for _, tn := range append(allTuners(), NewChameleon()) {
		tn := tn
		t.Run(tn.Name(), func(t *testing.T) {
			full := mustTune(t, tn, task, sim(51), quickOpts(60, 43))
			if len(full.Samples) <= cancelAt {
				t.Fatalf("full run too short to cancel inside: %d samples", len(full.Samples))
			}
			for _, workers := range []int{1, 4, 8} {
				ctx, cancel := context.WithCancel(context.Background())
				opts := quickOpts(60, 43)
				opts.Workers = workers
				opts.Observer = func(step int, _ active.Sample) {
					if step == cancelAt {
						cancel()
					}
				}
				res, err := Tune(ctx, tn, task, sim(51), opts)
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
				}
				if len(res.Samples) != cancelAt || res.Measurements != cancelAt {
					t.Fatalf("workers=%d: cancelled at step %d but recorded %d samples",
						workers, cancelAt, len(res.Samples))
				}
				if !sameSampleStream(res.Samples, full.Samples[:cancelAt]) {
					t.Fatalf("workers=%d: cancelled samples are not a prefix of the full run", workers)
				}
			}
		})
	}
}

// TestCancelledBeforeStart covers the degenerate prefix: a context cancelled
// before Tune is called yields zero samples and the cancellation error.
func TestCancelledBeforeStart(t *testing.T) {
	task := testTask(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tn := range allTuners() {
		res, err := Tune(ctx, tn, task, sim(52), quickOpts(40, 3))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v", tn.Name(), err)
		}
		if len(res.Samples) != 0 {
			t.Fatalf("%s: measured %d samples on a dead context", tn.Name(), len(res.Samples))
		}
	}
}

// slowBackend adds a fixed wall-clock delay to every measurement so deadline
// tests have something to race against.
type slowBackend struct {
	inner backend.Backend
	delay time.Duration
}

func (s slowBackend) Name() string { return "slow(" + s.inner.Name() + ")" }

func (s slowBackend) Seeded() bool { return s.inner.Seeded() }

func (s slowBackend) Measure(w tensor.Workload, c space.Config) hwsim.Measurement {
	time.Sleep(s.delay)
	return s.inner.Measure(w, c)
}

func (s slowBackend) MeasureSeeded(w tensor.Workload, c space.Config, noiseSeed int64) hwsim.Measurement {
	time.Sleep(s.delay)
	return s.inner.MeasureSeeded(w, c, noiseSeed)
}

func (s slowBackend) NetworkLatency(deps []hwsim.Deployment, runs int) (float64, float64, error) {
	return s.inner.NetworkLatency(deps, runs)
}

// TestDeadlineStopsWithinOneBatch runs against a backend where each
// measurement takes ~1ms and sets a deadline far below the uncancelled
// runtime: Tune must return a DeadlineExceeded-wrapping error promptly —
// within roughly one in-flight batch of the deadline, with generous CI
// slack — carrying whatever prefix it measured.
func TestDeadlineStopsWithinOneBatch(t *testing.T) {
	task := testTask(t)
	slow := slowBackend{inner: sim(53), delay: time.Millisecond}
	opts := Options{Budget: 4096, EarlyStop: -1, PlanSize: 16, Seed: 61, Workers: 4}
	// Serial-equivalent runtime is budget * 1ms >> 50ms.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Tune(ctx, NewAutoTVM(), task, slow, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res.Measurements >= opts.Budget {
		t.Fatal("deadline did not cut the run short")
	}
	// One batch is 16 measurements at 1ms on 4 workers (~4ms); 2s absorbs
	// scheduler noise on loaded CI machines while still catching a run that
	// ignores the deadline (which would take >1s per 1024 measurements).
	if elapsed > 2*time.Second {
		t.Fatalf("Tune returned %v after the 50ms deadline", elapsed)
	}
}

// TestRandomUnvisitedFallbackOnTinySpace is the regression test for the
// fixed-draw-count stall: on a nearly exhausted small space, the uniform
// draws may all collide, and the systematic fallback scan must still find
// the remaining configuration rather than declaring the space exhausted.
func TestRandomUnvisitedFallbackOnTinySpace(t *testing.T) {
	tiny := tinyTask(t) // 6 configurations
	size := tiny.Space.Size()
	if size > 64 {
		t.Fatalf("test wants a space <= 64, got %d", size)
	}
	for hole := uint64(0); hole < size; hole++ {
		s := newSession(tiny, sim(1), quickOpts(10, 1).normalized())
		for f := uint64(0); f < size; f++ {
			if f != hole {
				s.visited[f] = true
			}
		}
		c, ok := s.randomUnvisited(newTestRNG(int64(hole)), nil)
		if !ok {
			t.Fatalf("hole %d: declared exhausted with one config remaining", hole)
		}
		if c.Flat() != hole {
			t.Fatalf("hole %d: returned flat %d", hole, c.Flat())
		}
		s.visited[hole] = true
		if _, ok := s.randomUnvisited(newTestRNG(int64(hole)), nil); ok {
			t.Fatalf("hole %d: found a config in a fully visited space", hole)
		}
	}
}

// TestRandomUnvisitedRespectsPlanned checks the in-flight batch is excluded
// exactly like the visited set.
func TestRandomUnvisitedRespectsPlanned(t *testing.T) {
	tiny := tinyTask(t)
	size := tiny.Space.Size()
	s := newSession(tiny, sim(2), quickOpts(10, 1).normalized())
	planned := make(map[uint64]bool)
	for i := uint64(0); i < size; i++ {
		c, ok := s.randomUnvisited(newTestRNG(9), planned)
		if !ok {
			t.Fatalf("exhausted after %d of %d plans", i, size)
		}
		if planned[c.Flat()] {
			t.Fatalf("replanned config %d", c.Flat())
		}
		planned[c.Flat()] = true
	}
	if _, ok := s.randomUnvisited(newTestRNG(9), planned); ok {
		t.Fatal("found a config with the whole space planned")
	}
}
