package tuner

import (
	"math"
	"testing"

	"repro/internal/active"
)

// sameSampleStream reports whether two sample slices are bit-identical:
// same configs in the same order with bitwise-equal measurements.
func sameSampleStream(a, b []active.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Config.Flat() != b[i].Config.Flat() ||
			math.Float64bits(a[i].GFLOPS) != math.Float64bits(b[i].GFLOPS) ||
			a[i].Valid != b[i].Valid {
			return false
		}
	}
	return true
}

// TestWorkerCountInvariance is the tentpole determinism contract: for every
// tuner, the same run seed must produce bit-identical Result.Samples whether
// the measurement pool has 1, 4 or 8 workers. Each run gets a fresh
// simulator with the same simulator seed; because the seeded measurement
// path derives noise from (run seed, config), the simulator's own RNG
// stream never influences results.
func TestWorkerCountInvariance(t *testing.T) {
	task := testTask(t)
	for _, tn := range allTuners() {
		tn := tn
		t.Run(tn.Name(), func(t *testing.T) {
			var ref []active.Sample
			for _, workers := range []int{1, 4, 8} {
				opts := quickOpts(80, 17)
				opts.Workers = workers
				res := mustTune(t, tn, task, sim(5), opts)
				if len(res.Samples) == 0 {
					t.Fatalf("workers=%d: no samples", workers)
				}
				if workers == 1 {
					ref = res.Samples
					continue
				}
				if !sameSampleStream(ref, res.Samples) {
					t.Fatalf("workers=%d: samples diverge from workers=1 run (%d vs %d samples)",
						workers, len(res.Samples), len(ref))
				}
			}
		})
	}
}

// TestWorkerCountInvarianceChameleon covers the adaptive-sampling tuner,
// which plans batches through clustering rather than model argmax.
func TestWorkerCountInvarianceChameleon(t *testing.T) {
	task := testTask(t)
	var ref []active.Sample
	for _, workers := range []int{1, 4, 8} {
		opts := quickOpts(64, 19)
		opts.Workers = workers
		res := mustTune(t, NewChameleon(), task, sim(6), opts)
		if workers == 1 {
			ref = res.Samples
			continue
		}
		if !sameSampleStream(ref, res.Samples) {
			t.Fatalf("workers=%d: chameleon samples diverge from serial run", workers)
		}
	}
}

// TestWorkerCountInvarianceWithFailures runs the pool against a flaky seeded
// measurer: injected failures must also land on the same configs for every
// worker count, because the failure coin derives from the measurement's
// noise seed.
func TestWorkerCountInvarianceWithFailures(t *testing.T) {
	task := testTask(t)
	var ref []active.Sample
	refFailures := -1
	for _, workers := range []int{1, 4, 8} {
		opts := quickOpts(80, 23)
		opts.Workers = workers
		flaky := newFlaky(sim(7), 0.3)
		res := mustTune(t, NewAutoTVM(), task, flaky, opts)
		if workers == 1 {
			ref = res.Samples
			refFailures = flaky.failures()
			continue
		}
		if !sameSampleStream(ref, res.Samples) {
			t.Fatalf("workers=%d: samples diverge from serial run under failure injection", workers)
		}
		if flaky.failures() != refFailures {
			t.Fatalf("workers=%d: %d injected failures, serial run had %d",
				workers, flaky.failures(), refFailures)
		}
	}
}

// TestWorkerCountInvarianceEarlyStop pins the fold-in-order semantics: with
// early stopping enabled, the pool may measure configs past the stopping
// point, but the recorded sample stream must still match the serial run
// exactly (the post-stop tail is discarded in submission order).
func TestWorkerCountInvarianceEarlyStop(t *testing.T) {
	task := testTask(t)
	var ref []active.Sample
	for _, workers := range []int{1, 8} {
		opts := Options{Budget: 120, EarlyStop: 20, PlanSize: 16, Seed: 29, Workers: workers}
		res := mustTune(t, NewAutoTVM(), task, sim(8), opts)
		if workers == 1 {
			ref = res.Samples
			continue
		}
		if !sameSampleStream(ref, res.Samples) {
			t.Fatalf("workers=%d: early-stopped samples diverge from serial run (%d vs %d)",
				workers, len(res.Samples), len(ref))
		}
	}
}
