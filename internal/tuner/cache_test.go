package tuner

import (
	"context"
	"testing"

	"repro/internal/backend"
	"repro/internal/hwsim"
)

// TestSharedCacheAcrossTuners is the cmd/compare memoization contract: a
// (tuner, seed) grid sharing one SharedCache issues strictly fewer raw simulator
// calls than the sum of its runs — BTED and BTED+BAO at the same run seed
// share their entire initialization set — while every run's samples stay
// bit-identical to an uncached run.
func TestSharedCacheAcrossTuners(t *testing.T) {
	task := testTask(t)
	grid := []Tuner{NewBTED(), NewBTEDBAO()}
	opts := quickOpts(48, 77)

	// Reference: each run against its own uncached backend.
	var reference []Result
	total := 0
	for _, tn := range grid {
		res := mustTune(t, tn, task, sim(60), opts)
		reference = append(reference, res)
		total += res.Measurements
	}

	raw := backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), 60))
	sc := backend.NewSharedCache(0)
	cache := backend.WithShared(raw, sc)
	for i, tn := range grid {
		res, err := Tune(context.Background(), tn, task, cache, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSampleStream(res.Samples, reference[i].Samples) {
			t.Fatalf("%s: cached run's samples differ from uncached run", tn.Name())
		}
	}
	calls := raw.Simulator().MeasureCount()
	if calls >= int64(total) {
		t.Fatalf("cache saved nothing: %d raw calls for %d measurements", calls, total)
	}
	hits := sc.Stats().Hits
	if hits == 0 {
		t.Fatal("no cache hits across the grid")
	}
	if calls+hits < int64(total) {
		t.Fatalf("accounting broken: %d raw + %d hits < %d measurements",
			calls, hits, total)
	}
}

// TestCachedRerunIsFree re-runs the identical (tuner, seed) cell against a
// warm cache: the second run must not reach the simulator at all.
func TestCachedRerunIsFree(t *testing.T) {
	task := testTask(t)
	raw := backend.Wrap("gtx1080ti", hwsim.NewSimulator(hwsim.GTX1080Ti(), 61))
	cache := backend.WithShared(raw, backend.NewSharedCache(0))
	opts := quickOpts(40, 19)

	first, err := Tune(context.Background(), NewAutoTVM(), task, cache, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold := raw.Simulator().MeasureCount()
	second, err := Tune(context.Background(), NewAutoTVM(), task, cache, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := raw.Simulator().MeasureCount(); n != cold {
		t.Fatalf("identical rerun issued %d raw calls", n-cold)
	}
	if !sameSampleStream(first.Samples, second.Samples) {
		t.Fatal("warm rerun produced different samples")
	}
}
