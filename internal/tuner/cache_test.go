package tuner

import (
	"context"
	"testing"

	"repro/internal/backend"
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

	counting := backend.NewCounting(sim(60))
	sc := backend.NewSharedCache(0)
	cache := backend.WithShared(counting, sc)
	for i, tn := range grid {
		res, err := Tune(context.Background(), tn, task, cache, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSampleStream(res.Samples, reference[i].Samples) {
			t.Fatalf("%s: cached run's samples differ from uncached run", tn.Name())
		}
	}
	if counting.Calls() >= int64(total) {
		t.Fatalf("cache saved nothing: %d raw calls for %d measurements", counting.Calls(), total)
	}
	hits := sc.Stats().Hits
	if hits == 0 {
		t.Fatal("no cache hits across the grid")
	}
	if counting.Calls()+hits < int64(total) {
		t.Fatalf("accounting broken: %d raw + %d hits < %d measurements",
			counting.Calls(), hits, total)
	}
}

// TestCachedRerunIsFree re-runs the identical (tuner, seed) cell against a
// warm cache: the second run must not reach the simulator at all.
func TestCachedRerunIsFree(t *testing.T) {
	task := testTask(t)
	counting := backend.NewCounting(sim(61))
	cache := backend.WithShared(counting, backend.NewSharedCache(0))
	opts := quickOpts(40, 19)

	first, err := Tune(context.Background(), NewAutoTVM(), task, cache, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold := counting.Calls()
	second, err := Tune(context.Background(), NewAutoTVM(), task, cache, opts)
	if err != nil {
		t.Fatal(err)
	}
	if counting.Calls() != cold {
		t.Fatalf("identical rerun issued %d raw calls", counting.Calls()-cold)
	}
	if !sameSampleStream(first.Samples, second.Samples) {
		t.Fatal("warm rerun produced different samples")
	}
}
